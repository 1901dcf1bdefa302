"""Training loop: ADAM, validation holdout, annealing and early stopping.

Every network trains with one recipe, taken from the paper (Cote-Allard et
al., "Deep Learning for Electromyographic Hand Gesture Signal Classification
Using Transfer Learning") and fixed as module constants: ``VALIDATION_FRACTION``
(10%) of the training data is held out for validation; when the validation
loss stops improving for ``patience_epochs`` epochs the learning rate
divides by ``ANNEAL_FACTOR`` (5) and the best weights are restored; training
stops after two consecutive decays with no improvement between them.  An
epoch counts as an improvement when its validation loss beats the best by
more than ``MIN_IMPROVEMENT`` (1e-5), this implementation's tolerance.  The
best-validation weights are returned, and per-subject batch-norm statistics
are finalized with one full pass over the training data.  A non-finite train
or validation loss in any epoch raises NumericalError.  ``max_epochs`` 0
runs no epoch and only finalizes the statistics a network predicts with.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NumericalError
from ..settings import config_class
from .network import softmax_cross_entropy
from .optim import Adam

log = logging.getLogger(__name__)

ANNEAL_FACTOR = 5.0
VALIDATION_FRACTION = 0.10
MIN_IMPROVEMENT = 1e-5
TrainConfig = config_class("TrainConfig", __name__, "A training run's settings (``settings.TABLE``).")


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    decays: int = 0
    stopped_epoch: int = 0
    best_val_loss: float = float("inf")


def _subject_batches(indices, subjects, batch_size, rng):
    """Subject-homogeneous batches interleaved round-robin across subjects.

    Without ``subjects`` every window is in one group, tagged None.
    """
    if subjects is None:
        groups = [(None, np.array(indices))]
    else:
        owners = np.asarray(subjects)[indices]
        groups = [(int(subj), indices[owners == subj]) for subj in np.unique(owners)]
    queues = []
    for subj, idx in groups:
        rng.shuffle(idx)
        batches = [
            (subj, idx[p : p + batch_size])
            for p in range(0, len(idx), batch_size)
            if len(idx[p : p + batch_size]) >= 2
        ]
        if batches:
            queues.append(batches)
    out = []
    while queues:
        remaining = []
        for q in queues:
            out.append(q.pop(0))
            if q:
                remaining.append(q)
        queues = remaining
    return out


def evaluate_loss(net, X, y, subjects=None):
    """Mean cross-entropy in deterministic eval mode, grouped by subject."""
    total, count = 0.0, 0
    for subj, sel in _group_by_subject(len(y), subjects):
        logits = net.forward(X[sel], mode="eval", subject=subj)
        loss, _ = softmax_cross_entropy(logits, y[sel])
        total += loss * len(sel)
        count += len(sel)
    return total / count


def _group_by_subject(n, subjects):
    if subjects is None:
        yield None, np.arange(n)
        return
    subjects = np.asarray(subjects)
    for subj in sorted(set(subjects.tolist())):
        yield int(subj), np.nonzero(subjects == subj)[0]


def finalize_bn(net, X, subjects=None):
    """Recompute exact batch-norm statistics with one full pass per subject."""
    for subj, sel in _group_by_subject(len(X), subjects):
        net.forward(X[sel], mode="finalize", subject=subj)
    return net


def _check_validation_subjects_train(val_subjects, train_subjects):
    """Raise ConfigError unless each validation subject has a training batch.

    A batch needs 2 windows, and the validation loss of a subject reads the
    batch-norm bank its training batches create.
    """
    trained = Counter(train_subjects.tolist())
    stranded = [s for s in sorted(set(val_subjects.tolist())) if trained[s] < 2]
    if stranded:
        counts = ", ".join(f"subject {s} with {trained[s]}" for s in stranded)
        raise ConfigError(f"validation holdout leaves {counts} training window(s); a batch needs 2")


def train(net, X, y, cfg: TrainConfig, subjects=None, val=None) -> TrainHistory:
    """Train in place; restores the best-validation weights before returning.

    ``val`` may supply an explicit (X_val, y_val) pair; otherwise a random
    ``VALIDATION_FRACTION`` of the data is held out, and with ``subjects``
    a subject left with validation windows but no training batch raises
    ConfigError before the first epoch.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    rng = np.random.default_rng(cfg.seed)
    dropout_rng = np.random.default_rng(rng.integers(2**63))

    if val is not None:
        X_val = np.asarray(val[0], dtype=np.float64)
        y_val = np.asarray(val[1], dtype=np.int64)
        val_subjects = None
        train_idx = rng.permutation(n)
    else:
        order = rng.permutation(n)
        n_val = max(1, int(round(VALIDATION_FRACTION * n)))
        val_idx, train_idx = order[:n_val], order[n_val:]
        X_val, y_val = X[val_idx], y[val_idx]
        val_subjects = subjects[val_idx] if subjects is not None else None
        if val_subjects is not None and cfg.max_epochs > 0:
            _check_validation_subjects_train(val_subjects, subjects[train_idx])
    if len(train_idx) < cfg.batch_size:
        raise ConfigError(
            f"training set ({len(train_idx)} after validation holdout) is smaller "
            f"than one batch ({cfg.batch_size})"
        )

    net.set_dropout_rate(cfg.dropout_rate)
    opt = Adam(net, cfg.learning_rate)
    history = TrainHistory()
    best_state = net.state_dict()
    stall = 0
    consecutive_decays = 0

    for epoch in range(cfg.max_epochs):
        epoch_loss, seen = 0.0, 0
        for subj, sel in _subject_batches(train_idx, subjects, cfg.batch_size, rng):
            net.zero_grads()
            loss, _ = net.train_batch(X[sel], y[sel], subject=subj, rng=dropout_rng)
            opt.step()
            epoch_loss += loss * len(sel)
            seen += len(sel)
        val_loss = evaluate_loss(net, X_val, y_val, val_subjects)
        if not (np.isfinite(epoch_loss) and np.isfinite(val_loss)):
            raise NumericalError(
                f"epoch {epoch + 1}: train loss {epoch_loss / max(1, seen)}, "
                f"validation loss {val_loss}; training diverged or the input is not finite"
            )
        history.train_loss.append(epoch_loss / max(1, seen))
        history.val_loss.append(val_loss)
        history.lr.append(opt.lr)
        history.stopped_epoch = epoch + 1

        if val_loss < history.best_val_loss - MIN_IMPROVEMENT:
            history.best_val_loss = val_loss
            best_state = net.state_dict()
            stall = 0
            consecutive_decays = 0
            continue
        stall += 1
        if stall >= cfg.patience_epochs:
            consecutive_decays += 1
            history.decays += 1
            net.load_state_dict(best_state)
            if consecutive_decays >= 2:
                log.info("early stop at epoch %d after %d decays", epoch + 1, history.decays)
                break
            opt.lr /= ANNEAL_FACTOR
            opt.reset_moments()
            stall = 0

    net.load_state_dict(best_state)
    finalize_bn(net, X, subjects)
    return history
