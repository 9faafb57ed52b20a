#!/usr/bin/env python3
"""Tour of the autodiff kernel: tensors, gradients, and the Adam optimizer.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from seqrec import autograd as ag
from seqrec.optim import AdamState, ParamStore, adam_step

# --- tensors and gradients --------------------------------------------------

x = ag.param([1.0, 2.0])
loss = (x * x).sum()
ag.backward(loss)
print("d(x.x)/dx at [1,2]  ->", x.grad, "(expect [2, 4])")

# gradients accumulate over reuse of the same tensor
x.zero_grad()
ag.backward((x * 2.0 + x * 5.0).sum())
print("d(2x+5x)/dx         ->", x.grad, "(expect [7, 7])")

# softmax takes a boolean mask of the cells each row may use; this causal
# one lets row t see columns <= t, as attention does, and a blocked cell
# gets weight exactly 0
y = ag.param([[0.5, -1.0, 3.0], [0.2, 0.1, -0.4], [1.0, 2.0, 0.0]])
causal = np.tril(np.ones((3, 3), dtype=bool))
probs = ag.softmax(y, causal)
print("causal softmax rows:\n", np.round(probs.data, 3))
# rows always sum to one, so the gradient of their sum vanishes
ag.backward(probs.sum())
print("grad of sum(softmax) ->", np.abs(y.grad).max(), "(expect 0)")

# --- checking an analytic gradient against finite differences ---------------

w = ag.xavier_init((5, 4), np.random.default_rng(0))
ids = np.array([[1, 3, 2]])
table = ag.xavier_init((6, 5), np.random.default_rng(1))


def build_loss():
    h = ag.embedding_lookup(table, ids)       # (1, 3, 5)
    h = ag.relu(ag.matmul(h, w))              # (1, 3, 4)
    return ag.cross_entropy(h, np.array([[0, 1, 2]])).mean()


ag.backward(build_loss())
analytic = w.grad[2, 1]
h_step = 1e-5
orig = w.data[2, 1]
w.data[2, 1] = orig + h_step
with ag.no_grad():
    up = build_loss().item()
w.data[2, 1] = orig - h_step
with ag.no_grad():
    down = build_loss().item()
w.data[2, 1] = orig
fd = (up - down) / (2 * h_step)
print(f"analytic {analytic:+.8f} vs finite difference {fd:+.8f}")

# --- a few Adam steps on a quadratic bowl ------------------------------------

p = ag.param([4.0, -3.0])
store = ParamStore({"p": p})
opt = AdamState(store, lr=0.05)
for step in range(200):
    ag.backward((p * p).sum())
    adam_step(store, opt)
print("after 200 Adam steps on |p|^2:", np.round(p.data, 4))
