"""Acceptance gate: one test per shipping criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The two training-based checks are marked slow; everything else
finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from gradcheck import directional_rel_error
from seqrec import autograd as ag
from seqrec.augmenter import augmenter_loss, restoration_accuracy
from seqrec.augops import (
    OP_DELETE,
    OP_INSERT,
    OP_KEEP,
    AugConfig,
    CorruptionConfig,
    CorruptionRecord,
    corrupt_sequence,
    random_augment,
)
from seqrec.checkpoint import load_checkpoint, save_checkpoint
from seqrec.config import RunConfig, config_to_lines
from seqrec.contrastive import batch_contrastive_loss, triplet_loss
from seqrec.data import (
    Interaction,
    ItemSequence,
    Vocabulary,
    build_sequences,
    five_core_filter,
    leave_one_out_split,
    sample_negatives,
)
from seqrec.encoder import ModelDims
from seqrec.evaluate import (
    K_VALUES,
    NoisySimConfig,
    dist,
    evaluate_model,
    rank_of_target,
    simulate_noisy_testset,
    user_metrics,
)
from seqrec.optim import AdamState, ParamStore
from seqrec.recommender import rec_loss, sequence_reprs
from seqrec.synthgen import SynthSpec, generate
from seqrec.trainer import (
    build_model,
    dims_from_config,
    model_arrays,
    model_from_arrays,
    train_augmenter,
    train_recommender,
)


def _report(n, text):
    print(f"\n[criterion {n}] PASS - {text}")


def synth_split(structure, n_users, noise, seed, **kw):
    spec = SynthSpec(n_items=120, n_users=n_users, structure=structure,
                     min_len=8, max_len=18, noise_rate=noise, seed=seed, **kw)
    interactions, _ = generate(spec)
    filtered = five_core_filter(interactions)
    vocab = Vocabulary.from_interactions(filtered)
    sequences = build_sequences(filtered, vocab)
    return leave_one_out_split(sequences), vocab, sequences


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.time()
    dims = ModelDims(n_items=20, embed_dim=8, n_layers=1, n_heads=1, dropout=0.0)
    worst = {}
    for trial in range(20):
        rng = np.random.default_rng(41_000 + trial)
        model = build_model(dims, seed=trial)
        enc, aug, rec = model.enc, model.aug, model.rec
        seqs = [list(rng.integers(1, 21, size=int(rng.integers(4, 9))))
                for _ in range(3)]
        # contrast views are data: freeze them before differentiating
        acfg = AugConfig()
        view1 = [random_augment(s, acfg, seed=trial * 7 + i, mask_id=dims.mask_id)
                 for i, s in enumerate(seqs)]
        view2 = [random_augment(s, acfg, seed=trial * 7 + 100 + i, mask_id=dims.mask_id)
                 for i, s in enumerate(seqs)]
        ccfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=20)
        records = [corrupt_sequence(s, ccfg, seed=trial * 11 + i)
                   for i, s in enumerate(seqs)]
        enc_rec = {**enc.named_params(), **rec.named_params()}
        enc_aug = {**enc.named_params(), **aug.named_params()}
        everything = {**enc.named_params(), **aug.named_params(), **rec.named_params()}

        cases = {
            "L_rec": (lambda: rec_loss(seqs, enc, rec), enc_rec),
            "L_cl": (lambda: batch_contrastive_loss(
                sequence_reprs(view1, enc, rec), sequence_reprs(view2, enc, rec)),
                enc_rec),
            "L_tri": (lambda: triplet_loss(
                sequence_reprs(seqs, enc, rec), sequence_reprs(view1, enc, rec),
                sequence_reprs(view2, enc, rec)), enc_rec),
            "L_aug": (lambda: augmenter_loss(records, enc, aug)[0], enc_aug),
            "joint": (lambda: (
                rec_loss(seqs, enc, rec)
                + 0.1 * batch_contrastive_loss(
                    sequence_reprs(view1, enc, rec), sequence_reprs(view2, enc, rec))
                + 0.005 * triplet_loss(
                    sequence_reprs(seqs, enc, rec), sequence_reprs(view1, enc, rec),
                    sequence_reprs(view2, enc, rec))
                + augmenter_loss(records, enc, aug)[0]), everything),
        }
        for name, (build, params) in cases.items():
            err = directional_rel_error(build, params, rng)
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.time() - t0
    for name, err in worst.items():
        assert err <= 1e-4, f"{name}: rel err {err:.3e}"
    assert elapsed < 60, f"gradient suite took {elapsed:.1f}s"
    _report(1, "analytic vs finite-difference gradients, "
               + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
               + f", {elapsed:.1f}s over 20 seeds")


# ---------------------------------------------------------------------------
# 2. loss oracles
# ---------------------------------------------------------------------------


def test_criterion_2_loss_oracles():
    # in-batch loss vs naive double loop at N=4
    rng = np.random.default_rng(7)
    a1 = rng.standard_normal((4, 8))
    a2 = rng.standard_normal((4, 8))
    views = np.concatenate([a1, a2])
    naive_terms = []
    for i in range(8):
        partner = i + 4 if i < 4 else i - 4
        pos = math.exp(views[i] @ views[partner])
        denom = pos + sum(
            math.exp(views[i] @ views[j]) for j in range(8) if j not in (i, partner)
        )
        naive_terms.append(-math.log(pos / denom))
    got_cl = batch_contrastive_loss(ag.constant(a1), ag.constant(a2)).item()
    cl_gap = abs(got_cl - float(np.mean(naive_terms)))
    assert cl_gap <= 1e-10

    # triplet loss equals softplus(sim(raw,neg) - sim(raw,pos))
    raw = rng.standard_normal((5, 8))
    pos_v = rng.standard_normal((5, 8))
    neg_v = rng.standard_normal((5, 8))
    deltas = (raw * neg_v).sum(1) - (raw * pos_v).sum(1)
    softplus_ref = float(np.mean(np.log1p(np.exp(-np.abs(deltas)))
                                 + np.maximum(deltas, 0.0)))
    got_tri = triplet_loss(ag.constant(raw), ag.constant(pos_v), ag.constant(neg_v)).item()
    tri_gap = abs(got_tri - softplus_ref)
    assert tri_gap <= 1e-12

    # uniform-logit closed forms
    for n in (2, 4, 6):
        equal = ag.constant(np.ones((n, 8)))
        assert abs(batch_contrastive_loss(equal, equal).item() - math.log(2 * n - 1)) <= 1e-10

    dims = ModelDims(n_items=20, embed_dim=8, n_layers=1, n_heads=1, dropout=0.0)
    model = build_model(dims, seed=0)
    model.aug.op_proj.data[:] = 0.0
    record = CorruptionRecord(s_mod=[3, 8, 5, 11], ops=[OP_KEEP] * 4)
    _, stats = augmenter_loss([record], model.enc, model.aug)
    assert abs(stats.op_nll_sum - 4 * math.log(3.0)) <= 1e-10

    model.enc.item_emb.data[:] = 0.0  # uniform next-item scores
    lrec = rec_loss([[3, 8, 2], [7, 5, 1]], model.enc, model.rec).item()
    assert abs(lrec - math.log(20.0)) <= 1e-12
    _report(2, f"cl vs double loop {cl_gap:.1e}; tri vs softplus {tri_gap:.1e}; "
               "ln(2N-1), |S_m| ln3, ln|I| closed forms hold")


# ---------------------------------------------------------------------------
# 3. metric oracle
# ---------------------------------------------------------------------------


def test_criterion_3_metric_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    for trial in range(1000):
        ids = rng.choice(100_000, size=100, replace=False) + 1
        scores = np.round(rng.standard_normal(100), 2)  # coarse grid forces ties
        target = int(ids[rng.integers(0, 100)])
        # naive reference: explicit sort, then the formulas from scratch
        order = sorted(range(100), key=lambda i: (-scores[i], ids[i]))
        ref_rank = [ids[i] for i in order].index(target) + 1
        rank = rank_of_target(scores, ids, target)
        assert rank == ref_rank
        prev = None
        for k in K_VALUES:
            hit, rr, nd = user_metrics(rank, k)
            ref = (
                (1.0 if ref_rank <= k else 0.0),
                (1.0 / ref_rank if ref_rank <= k else 0.0),
                (1.0 / math.log2(ref_rank + 1) if ref_rank <= k else 0.0),
            )
            assert (hit, rr, nd) == ref
            assert hit >= nd >= rr
            if prev is not None:
                assert hit >= prev[0] and rr >= prev[1] and nd >= prev[2]
            prev = (hit, rr, nd)
        checked += 1
    _report(3, f"HR/MRR/NDCG match the naive reference exactly on {checked} "
               "random candidate sets; K-monotonicity and HR>=NDCG>=MRR hold")


# ---------------------------------------------------------------------------
# 4. restoration round trip
# ---------------------------------------------------------------------------


def test_criterion_4_restoration_round_trip():
    ccfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=200)
    rng = np.random.default_rng(23)

    def replay(rec):
        out = []
        for pos, (item, op) in enumerate(zip(rec.s_mod, rec.ops)):
            if op == OP_DELETE:
                continue
            if op == OP_INSERT:
                out.extend(rec.ins_targets[pos][::-1])
            out.append(item)
        out.extend(rec.tail_targets[::-1])
        return out

    draws = np.zeros(3)
    positions = 0
    for trial in range(1000):
        seq = list(rng.integers(1, 201, size=int(rng.integers(2, 40))))
        record = corrupt_sequence(seq, ccfg, seed=trial)
        assert replay(record) == seq
        for d in record.draws:
            draws[d] += 1
        positions += len(seq)
    assert positions >= 10_000
    freqs = draws / draws.sum()
    for got, want in zip(freqs, (0.4, 0.5, 0.1)):
        assert abs(got - want) <= 0.02, freqs
    _report(4, f"1000 round trips exact; realized op draws {np.round(freqs, 3)} "
               f"within 2% of (0.4, 0.5, 0.1) over {positions} positions")


# ---------------------------------------------------------------------------
# 5. augmenter learning on ring data
# ---------------------------------------------------------------------------


RING_SUCC = lambda d, n=120: d % n + 1  # dense-id ring successor


def _oracle_op(record):
    """Causal bigram rule: compare each item to its predecessor's successor."""
    preds = []
    for t, item in enumerate(record.s_mod):
        if t == 0:
            preds.append(OP_DELETE)  # marginal majority under (0.4, 0.5, 0.1)
            continue
        gap = 0
        probe = RING_SUCC(record.s_mod[t - 1])
        while probe != item and gap <= 8:
            probe = RING_SUCC(probe)
            gap += 1
        if gap == 0:
            preds.append(OP_KEEP)
        elif gap <= 8:
            preds.append(OP_INSERT)
        else:
            preds.append(OP_DELETE)
    return preds


def _oracle_runs(record):
    """Predecessor-walk insertion oracle for teacher-forced runs."""
    hits = total = 0
    ring_pred = lambda d: (d - 2) % 120 + 1
    for pos, run in record.ins_targets.items():
        anchor = record.s_mod[pos]
        want = ring_pred(anchor)
        for item in run:
            hits += int(item == want)
            total += 1
            want = ring_pred(item)
    if record.tail_targets:
        # first tail item is genuinely ambiguous; guess one past the end
        last = record.s_mod[-1]
        want = RING_SUCC(last)
        for item in record.tail_targets:
            hits += int(item == want)
            total += 1
            want = ring_pred(item)
    return hits, total


@pytest.mark.slow
def test_criterion_5_augmenter_learning():
    t0 = time.time()
    split, vocab, _ = synth_split("ring", n_users=2000, noise=0.0, seed=202)
    cfg = RunConfig(embed_dim=64, n_layers=1, n_heads=1, dropout=0.1,
                    batch_size=256, lr=0.005, epochs_augmenter=26, patience=50,
                    seed=1, p_keep=0.4, p_delete=0.5, p_insert=0.1)
    ccfg = CorruptionConfig(0.4, 0.5, 0.1, n_items=vocab.n_items)

    # held-out corruption records (seed tag never used during training)
    heldout = []
    for i, u in enumerate(split.users[:500]):
        if len(u.train) >= 2:
            heldout.append(corrupt_sequence(u.train, ccfg, seed=900_000 + i))

    # information-sufficiency calibration: the brute-force bigram oracle
    # must itself clear the frozen floors, otherwise the task is unfair
    op_hits = op_total = ins_hits = ins_total = 0
    for record in heldout:
        preds = _oracle_op(record)
        op_hits += sum(int(p == o) for p, o in zip(preds, record.ops))
        op_total += len(record.ops)
        h, t = _oracle_runs(record)
        ins_hits += h
        ins_total += t
    oracle_op = op_hits / op_total
    oracle_ins = ins_hits / ins_total
    assert oracle_op > 0.75, f"bigram oracle op accuracy only {oracle_op:.3f}"
    assert oracle_ins > 0.5, f"bigram oracle insertion top-1 only {oracle_ins:.3f}"

    result = train_augmenter(split, vocab, cfg)
    model = result.model
    hits = {"op": 0, "ins": 0}
    den = {"op": 0, "ins": 0}
    for start in range(0, len(heldout), cfg.batch_size):
        chunk = heldout[start:start + cfg.batch_size]
        acc = restoration_accuracy(chunk, model.enc, model.aug)
        hits["op"] += acc.op_hits
        den["op"] += acc.n_op_positions
        hits["ins"] += acc.ins_hits
        den["ins"] += acc.n_ins_items
    op_acc = hits["op"] / den["op"]
    ins_top1 = hits["ins"] / den["ins"]
    elapsed = time.time() - t0
    assert op_acc > 0.75, f"held-out op accuracy {op_acc:.3f}"
    assert ins_top1 >= 0.5, f"teacher-forced insertion top-1 {ins_top1:.3f}"
    assert elapsed <= 600, f"criterion 5 took {elapsed:.0f}s"
    _report(5, f"op accuracy {op_acc:.3f} (>0.75), insertion top-1 {ins_top1:.3f} "
               f"(>=0.5), oracle ceiling {oracle_op:.3f}/{oracle_ins:.3f}, "
               f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. end-to-end learning on block data
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_end_to_end_learning():
    t0 = time.time()
    split, vocab, _ = synth_split("block", n_users=2000, noise=0.1, seed=606,
                                  n_blocks=12, in_block_prob=0.9)
    cfg = RunConfig(embed_dim=64, n_layers=1, n_heads=1, dropout=0.1,
                    batch_size=256, lr=0.003, epochs_augmenter=6,
                    epochs_recommender=8, patience=50, seed=3, mode="full",
                    alpha=0.1, beta=0.005)
    phase1 = train_augmenter(split, vocab, cfg)
    phase2 = train_recommender(split, vocab, cfg, pretrained=phase1.model)
    report_full = evaluate_model(split, vocab, phase2.model.enc, phase2.model.rec,
                                 which="test", seed=cfg.seed)

    base_cfg = RunConfig(embed_dim=64, n_layers=1, n_heads=1, dropout=0.1,
                         batch_size=256, lr=0.003, epochs_recommender=8,
                         patience=50, seed=3, mode="base", alpha=0.1, beta=0.005)
    base = train_recommender(split, vocab, base_cfg)
    report_base = evaluate_model(split, vocab, base.model.enc, base.model.rec,
                                 which="test", seed=cfg.seed)
    elapsed = time.time() - t0
    assert report_full.hr[10] >= 0.30, f"full-mode HR@10 {report_full.hr[10]:.3f}"
    assert np.isfinite(report_base.total)
    assert elapsed <= 900, f"criterion 6 took {elapsed:.0f}s"
    direction = "full>base" if report_full.total > report_base.total else "base>=full"
    _report(6, f"mode=full HR@10 {report_full.hr[10]:.3f} (>=0.30, random 0.10); "
               f"Sum full {report_full.total:.3f} vs base {report_base.total:.3f} "
               f"({direction}, reported not asserted); {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. robustness harness
# ---------------------------------------------------------------------------


def test_criterion_7_robustness_harness():
    tokens = [f"i{k:05d}" for k in range(10_000)]
    vocab = Vocabulary({t: i + 1 for i, t in enumerate(tokens)}, ["<pad>"] + tokens)
    rng = np.random.default_rng(31)
    seqs = [
        ItemSequence(f"u{k}", list(rng.choice(10_000, size=25, replace=False) + 1))
        for k in range(500)
    ]
    noised = simulate_noisy_testset(seqs, NoisySimConfig(ratio=(4, 3, 3), seed=5), vocab)
    positions = survivors = inserted = 0
    for before, after in zip(seqs, noised):
        assert after.items[-1] == before.items[-1]
        original = set(before.items[:-1])
        kept = sum(1 for x in after.items[:-1] if x in original)
        positions += len(before.items) - 1
        survivors += kept
        inserted += len(after.items) - 1 - kept
    assert positions >= 10_000
    # an insert keeps its original item too, so survivors/positions ~ keep+insert
    del_f = 1.0 - survivors / positions
    ins_f = inserted / positions
    keep_f = 1.0 - del_f - ins_f
    assert abs(keep_f - 0.4) <= 0.02
    assert abs(del_f - 0.3) <= 0.02
    assert abs(ins_f - 0.3) <= 0.02

    d1 = dist(3.6540, 3.7740) * 100
    d2 = dist(5.3365, 5.5523) * 100
    assert abs(d1 - (-3.17)) <= 0.01
    assert abs(d2 - (-3.88)) <= 0.01
    _report(7, f"final items preserved on 500 sequences; realized "
               f"keep/delete/insert ({keep_f:.3f}, {del_f:.3f}, {ins_f:.3f}) "
               f"within 2% of 0.4/0.3/0.3; dist {d1:+.4f}% and {d2:+.4f}%")


# ---------------------------------------------------------------------------
# 8. determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    split, vocab, _ = synth_split("ring", n_users=300, noise=0.0, seed=77)
    cfg = RunConfig(embed_dim=16, n_layers=1, n_heads=1, dropout=0.2,
                    batch_size=32, lr=0.003, epochs_recommender=3, patience=50,
                    seed=9, mode="base")

    straight = train_recommender(split, vocab, cfg)
    rep_a = evaluate_model(split, vocab, straight.model.enc, straight.model.rec,
                           which="test", seed=cfg.seed)
    rep_b = evaluate_model(split, vocab, straight.model.enc, straight.model.rec,
                           which="test", seed=cfg.seed)
    assert rep_a.to_kv_lines() == rep_b.to_kv_lines()

    # train 2 epochs, persist through an actual checkpoint file, resume
    cfg2 = RunConfig(embed_dim=16, n_layers=1, n_heads=1, dropout=0.2,
                     batch_size=32, lr=0.003, epochs_recommender=2, patience=50,
                     seed=9, mode="base")
    partial = train_recommender(split, vocab, cfg2)
    path = tmp_path / "resume.ckpt"
    save_checkpoint(
        path,
        "\n".join(config_to_lines(cfg2, meta={"n_items": vocab.n_items, "epoch": 1})),
        model_arrays(partial.model),
        opt_step=partial.opt.step_count,
        opt_arrays=partial.opt.state_arrays(),
    )
    _, arrays, opt_step, opt_arrays = load_checkpoint(path)
    dims = dims_from_config(cfg, vocab.n_items)
    resumed_model = model_from_arrays(dims, arrays, seed=cfg.seed)
    params = ParamStore(resumed_model.named_params(("enc", "rec")))
    opt = AdamState(params, lr=cfg.lr)
    opt.load_state_arrays(opt_arrays, opt_step)
    resumed = train_recommender(split, vocab, cfg, model=resumed_model, opt=opt,
                                start_epoch=2)

    gap = abs(straight.history[-1]["loss_total"] - resumed.history[0]["loss_total"])
    assert gap <= 1e-12, f"resume loss gap {gap:.2e}"
    for name, arr in model_arrays(straight.model).items():
        np.testing.assert_array_equal(arr, model_arrays(resumed.model)[name])
    _report(8, f"identical config+seed -> identical report; checkpoint resume "
               f"matches the unbroken run (next-step loss gap {gap:.1e})")


# ---------------------------------------------------------------------------
# 9. data pipeline
# ---------------------------------------------------------------------------


def test_criterion_9_data_pipeline():
    rng = np.random.default_rng(41)

    def oracle_five_core(interactions):
        current = list(interactions)
        while True:
            users, items = {}, {}
            for x in current:
                users[x.user_id] = users.get(x.user_id, 0) + 1
                items[x.item_id] = items.get(x.item_id, 0) + 1
            nxt = [x for x in current
                   if users[x.user_id] >= 5 and items[x.item_id] >= 5]
            if nxt == current:
                return nxt
            current = nxt

    for trial in range(100):
        n = int(rng.integers(10, 80))
        interactions = [
            Interaction(f"u{rng.integers(0, 10)}", f"i{rng.integers(0, 10)}", int(t))
            for t in range(n)
        ]
        got = five_core_filter(interactions)
        assert got == oracle_five_core(interactions)
        assert five_core_filter(got) == got

    split, vocab, sequences = synth_split("ring", n_users=400, noise=0.05, seed=55)
    by_user = {s.user_id: s.items for s in sequences}
    assert len(split.users) > 0
    for u in split.users:
        assert u.train + [u.valid_target, u.test_target] == by_user[u.user_id]

    checked = 0
    for seq in sequences:
        cands = sample_negatives(seq, vocab, count=99, seed=13)
        assert len(set(cands.negatives)) == 99
        assert not set(cands.negatives) & set(seq.items)
        checked += 1
    _report(9, f"5-core matches the iterate-until-stable oracle on 100 graphs "
               f"(idempotent); splits partition exactly; negatives disjoint for "
               f"all {checked} users")
