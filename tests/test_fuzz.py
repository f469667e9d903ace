"""Boundary fuzz: each input a subcommand reads, mutated by a seeded stdlib
mutator, is either read (exit 0) or rejected (exit 1) by an error that names
the mutated file, never with a traceback, and a rejected run leaves no
``--out``."""

import random
import shutil

import pytest

from os2e import io, network
from os2e.cli import run

MUTATIONS_PER_INPUT = 20


@pytest.fixture(scope="module")
def walk(tmp_path_factory):
    """The README walkthrough's artifacts, built once at a small size and
    ``--schedule``."""
    root = tmp_path_factory.mktemp("walk")
    resp, vec, imgs = root / "resp", root / "vec", root / "imgs"
    steps = [
        ["gen", "--preset", "responses", "--seed", "0", "--n-train", "24",
         "--n-test", "8", "--out", resp],
        ["stats", "--responses", resp / "object_responses.csv",
         "--labels", resp / "labels.csv", "--out", root / "stats"],
        ["gen", "--preset", "vectors", "--seed", "0", "--n-train", "16",
         "--n-test", "16", "--out", vec],
        ["train", "--mode", "init", "--train", vec / "train.csv",
         "--test", vec / "test.csv", "--schedule", "2", "--trunk", "8",
         "--out", root / "runs" / "init"],
        ["gen", "--preset", "images", "--seed", "0", "--n-train", "1",
         "--n-test", "2", "--out", imgs],
    ]
    for argv in steps:
        assert run([str(arg) for arg in argv]) == 0
    net = network.NetworkConfig(input_dim=16 * 16, trunk=(), heads=(4,), dropout_rate=0.0)
    ckpt = network.Checkpoint(config=net, params=network.init_params(net, 1))
    io.write_checkpoint_json(str(root / "ckpt.json"), ckpt)
    return root


def _train(mode, **inputs):
    """``train`` in ``mode`` on the walkthrough's vectors; ``inputs`` maps an
    input flag's name to its file under the walkthrough root."""
    files = {"train": "vec/train.csv", "test": "vec/test.csv", **inputs}
    args = ["train", "--mode", mode, "--schedule", "2"]
    if "source" not in inputs:  # a source sets the trunk
        args += ["--trunk", "8"]
    for flag, name in files.items():
        args += [f"--{flag.replace('_', '-')}", name]
    return args


_INFER = ["infer", "--checkpoint-o", "ckpt.json", "--checkpoint-s", "ckpt.json",
          "--image-dir", "imgs/test", "--base-side", "32", "--crop-side", "16"]

# each input, by its file under the walkthrough root, and the command that
# reads it, with file arguments relative to that root
INPUTS = {
    "responses": ("resp/object_responses.csv",
                  ["stats", "--responses", "resp/object_responses.csv",
                   "--labels", "resp/labels.csv"]),
    "labels": ("resp/labels.csv",
               ["stats", "--responses", "resp/object_responses.csv",
                "--labels", "resp/labels.csv"]),
    "conditional": ("stats/conditional.json",
                    ["select", "--table", "stats/conditional.json", "--k", "4"]),
    "train_csv": ("vec/train.csv",
                  _train("knowledge", soft_targets="vec/soft_targets.json")),
    "test_csv": ("vec/test.csv", _train("init")),
    "aux_csv": ("vec/aux.csv", _train("data", aux="vec/aux.csv")),
    "soft_targets": ("vec/soft_targets.json",
                     _train("knowledge", soft_targets="vec/soft_targets.json")),
    "source": ("runs/init/checkpoint.json",
               _train("init", source="runs/init/checkpoint.json")),
    "infer_checkpoint": ("ckpt.json", _INFER),
    "image_stack": ("imgs/test/img.npy", _INFER),
    "train_report": ("runs/init/report.json", ["report", "--run-dir", "runs"]),
    "run_config": ("runs/init/resolved_config.json", ["report", "--run-dir", "runs"]),
}


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` truncated, with a byte replaced, a line dropped or
    duplicated, or two bytes swapped."""
    kind = rng.choice(["truncate", "replace", "drop", "duplicate", "swap"])
    i, j = sorted(rng.sample(range(len(data)), 2))
    if kind == "truncate":
        return data[:i]
    if kind == "replace":
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
    if kind == "swap":
        return data[:i] + data[j:j + 1] + data[i + 1:j] + data[i:i + 1] + data[j + 1:]
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    if kind == "drop":
        del lines[k]
    else:
        lines.insert(k, lines[k])
    return b"".join(lines)


@pytest.mark.parametrize("name", INPUTS)
def test_mutated_input_is_read_or_named(walk, tmp_path, monkeypatch, capsys, name):
    target, argv = INPUTS[name]
    # each run works on a copy of the walkthrough whose one target file is
    # mutated, with relative paths, so the path in an error is the argument
    work = tmp_path / "walk"
    shutil.copytree(walk, work)
    monkeypatch.chdir(work)
    original = (walk / target).read_bytes()
    rng = random.Random(f"os2e-fuzz-{name}")
    for n in range(MUTATIONS_PER_INPUT):
        mutated = _mutate(original, rng)
        (work / target).write_bytes(mutated)
        out = tmp_path / f"out_{n}"
        capsys.readouterr()
        code = run([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        context = f"mutation {n} of {target} ({len(mutated)} bytes): {err!r}"
        if code == 0:
            assert out.is_dir(), context
        else:
            assert code == 1, context
            assert target in err, context
            assert not out.exists(), context
