"""Contrastive losses: closed forms, brute-force oracle, gradients."""

import numpy as np
import pytest

from gradcheck import directional_rel_error
from seqrec import autograd as ag
from seqrec.contrastive import batch_contrastive_loss, triplet_loss
from seqrec.encoder import EncoderParams, ModelDims
from seqrec.errors import ConfigError
from seqrec.recommender import RecommenderParams, sequence_reprs

DIMS = ModelDims(n_items=30, embed_dim=16, n_layers=1, n_heads=1, dropout=0.0)


def naive_infonce(a1: np.ndarray, a2: np.ndarray) -> float:
    """Double-loop oracle: positive is the partner view, negatives are the
    other 2N-2 views (self excluded)."""
    n = a1.shape[0]
    views = np.concatenate([a1, a2], axis=0)
    losses = []
    for i in range(2 * n):
        partner = i + n if i < n else i - n
        pos = np.exp(views[i] @ views[partner])
        denom = pos
        for j in range(2 * n):
            if j == i or j == partner:
                continue
            denom += np.exp(views[i] @ views[j])
        losses.append(-np.log(pos / denom))
    return float(np.mean(losses))


def naive_triplet(raw, pos, neg) -> float:
    """-log of the two-way softmax, computed directly."""
    losses = []
    for r, p, q in zip(raw, pos, neg):
        sp = np.exp(r @ p)
        sq = np.exp(r @ q)
        losses.append(-np.log(sp / (sp + sq)))
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# in-batch loss
# ---------------------------------------------------------------------------


def test_all_equal_reprs_give_log_2n_minus_1():
    for n in (2, 4, 7):
        reprs = np.ones((n, 8))
        loss = batch_contrastive_loss(ag.constant(reprs), ag.constant(reprs))
        assert abs(loss.item() - np.log(2 * n - 1)) < 1e-12


def test_n2_all_equal_is_ln3():
    reprs = ag.constant(np.full((2, 4), 0.3))
    assert abs(batch_contrastive_loss(reprs, reprs).item() - np.log(3.0)) < 1e-12


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    a1 = rng.standard_normal((4, 8))
    a2 = rng.standard_normal((4, 8))
    got = batch_contrastive_loss(ag.constant(a1), ag.constant(a2)).item()
    assert abs(got - naive_infonce(a1, a2)) < 1e-10


def test_constant_shift_stays_finite_and_oracle_equal():
    rng = np.random.default_rng(1)
    a1 = rng.standard_normal((4, 8))
    a2 = rng.standard_normal((4, 8))
    shift = 1.5 * np.ones(8)
    got = batch_contrastive_loss(ag.constant(a1 + shift), ag.constant(a2 + shift)).item()
    assert np.isfinite(got)
    assert abs(got - naive_infonce(a1 + shift, a2 + shift)) < 1e-10


def test_requires_two_sequences():
    reprs = ag.constant(np.ones((1, 4)))
    with pytest.raises(ConfigError):
        batch_contrastive_loss(reprs, reprs)


def test_cl_loss_nonnegative():
    rng = np.random.default_rng(3)
    for trial in range(20):
        a1 = ag.constant(rng.standard_normal((4, 8)))
        a2 = ag.constant(rng.standard_normal((4, 8)))
        assert batch_contrastive_loss(a1, a2).item() >= 0.0


def test_cl_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    params = {
        "a1": ag.param(rng.standard_normal((4, 8))),
        "a2": ag.param(rng.standard_normal((4, 8))),
    }
    err = directional_rel_error(
        lambda: batch_contrastive_loss(params["a1"], params["a2"]), params, rng
    )
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# triplet loss
# ---------------------------------------------------------------------------


def test_equal_similarities_give_ln2():
    raw = ag.constant(np.ones((3, 5)))
    same = ag.constant(np.tile(np.arange(5.0), (3, 1)))
    loss = triplet_loss(raw, same, same)
    assert abs(loss.item() - np.log(2.0)) < 1e-12


def test_large_margin_matches_softplus_tail():
    # sim(raw,pos) - sim(raw,neg) = 10 -> loss = softplus(-10)
    raw = ag.constant(np.array([[1.0, 0.0]]))
    pos = ag.constant(np.array([[10.0, 0.0]]))
    neg = ag.constant(np.array([[0.0, 0.0]]))
    expected = np.log1p(np.exp(-10.0))  # 4.5398e-05, computed independently
    assert abs(triplet_loss(raw, pos, neg).item() - expected) < 1e-12
    assert abs(expected - 4.5398e-05) < 1e-9


def test_matches_naive_log_form():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((6, 8))
    pos = rng.standard_normal((6, 8))
    neg = rng.standard_normal((6, 8))
    got = triplet_loss(ag.constant(raw), ag.constant(pos), ag.constant(neg)).item()
    assert abs(got - naive_triplet(raw, pos, neg)) < 1e-12


def test_monotone_in_positive_similarity():
    raw = ag.constant(np.array([[1.0, 0.0]]))
    neg = ag.constant(np.array([[0.5, 0.0]]))
    losses = [
        triplet_loss(raw, ag.constant(np.array([[s, 0.0]])), neg).item()
        for s in np.linspace(-2, 2, 9)
    ]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_swap_identity():
    # swapping the two views maps loss(d) to loss(-d) = d + loss(d)
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((5, 8))
    pos = rng.standard_normal((5, 8))
    neg = rng.standard_normal((5, 8))
    fwd = triplet_loss(ag.constant(raw), ag.constant(pos), ag.constant(neg)).item()
    swapped = triplet_loss(ag.constant(raw), ag.constant(neg), ag.constant(pos)).item()
    deltas = ((raw * neg).sum(axis=1) - (raw * pos).sum(axis=1)).mean()
    assert abs(swapped - (-deltas + fwd)) < 1e-10


def test_triplet_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = {
        "raw": ag.param(rng.standard_normal((4, 8))),
        "pos": ag.param(rng.standard_normal((4, 8))),
        "neg": ag.param(rng.standard_normal((4, 8))),
    }
    err = directional_rel_error(
        lambda: triplet_loss(params["raw"], params["pos"], params["neg"]), params, rng
    )
    assert err <= 1e-4


def test_shape_mismatch_rejected():
    with pytest.raises(ConfigError):
        triplet_loss(ag.constant(np.ones((2, 4))), ag.constant(np.ones((2, 4))),
                     ag.constant(np.ones((3, 4))))


# ---------------------------------------------------------------------------
# sequence representations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def model_parts():
    return EncoderParams(DIMS, seed=0), RecommenderParams(DIMS, seed=1)


def test_identical_sequences_identical_reprs(model_parts):
    enc, rec = model_parts
    reprs = sequence_reprs([[3, 1, 4], [3, 1, 4]], enc, rec).data
    np.testing.assert_array_equal(reprs[0], reprs[1])


def test_repr_dimension_is_embed_dim(model_parts):
    enc, rec = model_parts
    assert sequence_reprs([[2, 7]], enc, rec).shape == (1, DIMS.embed_dim)


def test_left_pad_invariance(model_parts):
    enc, rec = model_parts
    # mixing lengths in one batch pads the shorter row on the left
    reprs = sequence_reprs([[5, 9], [1, 2, 3, 4, 5, 9]], enc, rec).data
    alone = sequence_reprs([[5, 9]], enc, rec).data
    np.testing.assert_allclose(reprs[0], alone[0], atol=1e-12, rtol=0)
