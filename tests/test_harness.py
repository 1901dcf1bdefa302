import math

import numpy as np

from myogest.architectures import build_architecture
from myogest.harness import run_session_replay


def predictions(net, samples, shift):
    """Rotate channels, cut 52-sample windows at stride 5, scale by 1/128, predict."""
    rotated = samples[(np.arange(8) + shift) % 8]
    X = np.stack([rotated[:, o : o + 52] for o in range(0, rotated.shape[1] - 51, 5)]) / 128.0
    return net.predict(X[:, :, None, :])


def test_session_replay_applies_channel_shift_and_skips_short_holds(tmp_path):
    net = build_architecture("raw-1d", num_classes=7, seed=5)
    net.metadata["channel_shift"] = 3
    net.save(tmp_path / "model.json")
    rng = np.random.default_rng(0)
    scale = np.arange(8)[:, None] * 12.0 + 2.0  # channels differ, so a rotation shows
    holds = [np.rint(rng.normal(0.0, 1.0, (8, n)) * scale).clip(-128, 127) for n in (300, 251, 252)]
    shifted = predictions(net, holds[0][:, 200:], 3)
    label = int(np.bincount(shifted).argmax())
    labels = [label, (label + 1) % 7, label]
    expected = float(np.mean(shifted == label))
    assert expected != float(np.mean(predictions(net, holds[0][:, 200:], 0) == label))

    rows, t = [], 0
    for hold, lab in zip(holds, labels):
        for column in hold.T:
            rows.append([t / 200.0, lab, *column])
            t += 1
    np.savetxt(tmp_path / "session.csv", np.array(rows), delimiter=",")

    timeline = run_session_replay(tmp_path / "session.csv", tmp_path / "model.json")
    assert [h["label"] for h in timeline] == labels
    assert [h["t_start"] for h in timeline] == [0.0, 1.5, 2.755]
    assert [h["n_windows"] for h in timeline] == [10, 0, 1]
    assert timeline[0]["accuracy"] == expected
    assert math.isnan(timeline[1]["accuracy"])
    last = predictions(net, holds[2][:, 200:], 3)
    assert timeline[2]["accuracy"] == float(last[0] == label)
