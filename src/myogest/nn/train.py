"""Training loop: ADAM, validation holdout, annealing and early stopping.

The schedule follows the networks' training recipe: 10% of the training data
is held out for validation; when the validation loss stops improving for
``patience_epochs`` epochs the learning rate divides by ``anneal_factor``
and the best weights are restored; training stops after two consecutive
decays with no improvement between them.  The best-validation weights are
returned, and per-subject batch-norm statistics are finalized with one full
pass over the training data.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .network import softmax_cross_entropy
from .optim import Adam

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    learning_rate: float = 0.002
    batch_size: int = 128
    dropout_rate: float = 0.5
    anneal_factor: float = 5.0
    patience_epochs: int = 5
    max_epochs: int = 100
    validation_fraction: float = 0.10
    seed: int = 0
    min_improvement: float = 1e-5
    finalize: bool = True

    def __post_init__(self):
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.anneal_factor <= 1.0:
            raise ConfigError("anneal_factor must exceed 1")


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    decays: int = 0
    stopped_epoch: int = 0
    best_val_loss: float = float("inf")


def _subject_batches(indices, subjects, batch_size, rng):
    """Subject-homogeneous batches interleaved round-robin across subjects."""
    owners = np.asarray(subjects)[indices]
    queues = []
    for subj in np.unique(owners):
        idx = indices[owners == subj]
        rng.shuffle(idx)
        batches = [
            (int(subj), idx[p : p + batch_size])
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


def _plain_batches(indices, batch_size, rng):
    idx = np.array(indices)
    rng.shuffle(idx)
    return [
        (None, idx[p : p + batch_size])
        for p in range(0, len(idx), batch_size)
        if len(idx[p : p + batch_size]) >= 2
    ]


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


def train(net, X, y, cfg: TrainConfig, subjects=None, val=None) -> TrainHistory:
    """Train in place; restores the best-validation weights before returning.

    ``val`` may supply an explicit (X_val, y_val) pair; otherwise a random
    ``validation_fraction`` of the data is held out.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if cfg.max_epochs == 0:
        return TrainHistory()
    rng = np.random.default_rng(cfg.seed)
    dropout_rng = np.random.default_rng(rng.integers(2**63))

    if val is not None:
        X_val = np.asarray(val[0], dtype=np.float64)
        y_val = np.asarray(val[1], dtype=np.int64)
        val_subjects = None
        train_idx = rng.permutation(n)
    else:
        order = rng.permutation(n)
        n_val = max(1, int(round(cfg.validation_fraction * n)))
        val_idx, train_idx = order[:n_val], order[n_val:]
        X_val, y_val = X[val_idx], y[val_idx]
        val_subjects = subjects[val_idx] if subjects is not None else None
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
        if subjects is not None:
            batches = _subject_batches(train_idx, subjects, cfg.batch_size, rng)
        else:
            batches = _plain_batches(train_idx, cfg.batch_size, rng)
        epoch_loss, seen = 0.0, 0
        for subj, sel in batches:
            net.zero_grads()
            loss, _ = net.train_batch(X[sel], y[sel], subject=subj, rng=dropout_rng)
            opt.step()
            epoch_loss += loss * len(sel)
            seen += len(sel)
        val_loss = evaluate_loss(net, X_val, y_val, val_subjects)
        history.train_loss.append(epoch_loss / max(1, seen))
        history.val_loss.append(val_loss)
        history.lr.append(opt.lr)
        history.stopped_epoch = epoch + 1

        if val_loss < history.best_val_loss - cfg.min_improvement:
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
            opt.lr /= cfg.anneal_factor
            opt.reset_moments()
            stall = 0

    net.load_state_dict(best_state)
    if cfg.finalize:
        finalize_bn(net, X, subjects)
    return history
