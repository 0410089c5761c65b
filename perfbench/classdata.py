"""Input of the compare-classification workload.

Usage: python3 perfbench/classdata.py SEED DIRECTORY

Writes a 3-class CSV drawn from SEED and the compare config that reads it.
The benchmark runs this in a child process so that its own address space
stays small while it times the CLI commands.
"""

import json
import os
import sys

import numpy as np

ROWS = 5000
INPUTS = 10
HIDDEN = 5
CLASSES = 3
TEMPERATURE = 0.1
STREAM = 0x636C6173  # numpy stream label, apart from lastlayer.rng


def write_classification_input(seed: int, directory: str) -> None:
    """Write classification.csv and classification.json into ``directory``.

    Inputs are uniform on [0, 1]^10.  A random two-layer tanh teacher gives
    three scores per row; each score is standardized and shifted so that
    the teacher's argmax puts a third of the rows in each class.  Labels are
    drawn from softmax(scores / 0.1), so a few rows disagree with the
    teacher.  Drawn with numpy's generator, independent of lastlayer.rng.
    """
    rng = np.random.default_rng([seed, STREAM])
    x = rng.uniform(0.0, 1.0, size=(ROWS, INPUTS))
    w1 = rng.uniform(-1.0, 1.0, size=(INPUTS, HIDDEN))
    w2 = rng.uniform(-1.0, 1.0, size=(HIDDEN, CLASSES))
    scores = np.tanh(x @ w1) @ w2
    scores = (scores - scores.mean(axis=0)) / scores.std(axis=0)
    offset = np.zeros(CLASSES)
    for _ in range(200):
        share = np.bincount(np.argmax(scores - offset, axis=1), minlength=CLASSES) / ROWS
        offset += 0.5 * (share - 1.0 / CLASSES)
    logits = (scores - offset) / TEMPERATURE
    labels = np.argmax(logits + rng.gumbel(size=logits.shape), axis=1)
    onehot = np.eye(CLASSES)[labels]

    csv_path = os.path.join(directory, "classification.csv")
    features = [f"x{i}" for i in range(INPUTS)]
    classes = [f"c{k}" for k in range(CLASSES)]
    np.savetxt(csv_path, np.hstack([x, onehot]), fmt="%.17g", delimiter=",",
               header=",".join(features + classes), comments="")
    config = {
        "dataset": {"kind": "csv", "path": csv_path, "feature_columns": features,
                    "target_columns": classes, "has_header": True},
        "split": {"fraction": 0.7, "seed": 202},
        "standardize": True,
        "network": {"init_seed": 303, "layers": [
            {"input_dim": INPUTS, "output_dim": 10, "activation": "tanh", "has_bias": True},
            {"input_dim": 10, "output_dim": 10, "activation": "relu", "has_bias": True},
            {"input_dim": 10, "output_dim": CLASSES, "activation": "softmax", "has_bias": False},
        ]},
        "loss": "cross_entropy",
        "train": {"iterations": 750, "batch_size": 50, "lr0": 0.05, "lr_decay": 1.0,
                  "dropout_keep": [1.0, 1.0], "weight_decay": 0.001, "seed": 404, "eval_every": 50},
        "posttrain": {"lambda": 0.001, "iterations": 200, "mode": "full_batch_backtracking",
                      "seed": 505},
        "checkpoints": [250, 500, 750],
        "metric": "classification_error",
        "seeds": [seed],
    }
    config_path = os.path.join(directory, "classification.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)


if __name__ == "__main__":
    write_classification_input(int(sys.argv[1]), sys.argv[2])
