"""The four benchmark workloads.

Each workload builds a fixed pool of seeded inputs (one *cycle* of items) and
exposes:

* ``run(k)`` -- the timed call into os2e for pool item ``k``;
* ``check(k, out)`` -- untimed output check, returning ``(summary, problems)``;
  equal inputs must give equal summaries, which the harness also checks;
* ``test_map(summaries)`` -- the deterministic quality figure of the pool;
* ``warm_up()`` -- one untimed item whose problems make the run incorrect.

Constructors take ``(seed, reference, work_dir)``: the workload seed, the
stored reference outputs of the reference seed, and a temporary directory
that the harness removes.

All calls go through module attributes (``training.init_transfer_train``,
``pipeline.classify_image``, ...) so the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile

import numpy as np

from os2e import cli, datagen, io, network, pipeline, selection, stats, training

REFERENCE_SEED = 0
ENERGY_TOL = 1e-12


def _map_above_chance(test_map: float, labels: np.ndarray, num_classes: int) -> bool:
    # a random ranking's AP is about the positive rate of the class
    chance = float(np.mean(np.bincount(labels, minlength=num_classes) / labels.size))
    return math.isfinite(test_map) and test_map > chance


class Transfer:
    """Item: one transfer-training run (init, knowledge or data mode)."""

    name = "transfer"
    MODES = ("init", "knowledge", "data")
    POOL = 12  # dataset seeds per workload seed

    def __init__(self, seed: int, reference: dict, work_dir: str):
        self.data = []
        for j in range(self.POOL):
            data_seed = 1000 * seed + j
            config = datagen.preset_vector_benchmark(data_seed)
            truth = datagen.make_truth(config)
            train, test, soft = datagen.gen_vector_dataset(config, truth)
            aux = datagen.gen_aux_dataset(config, truth)
            source = datagen.make_source_checkpoint(
                config, truth, trunk=datagen.BENCHMARK_TRUNK, kind=datagen.BENCHMARK_SOURCE_KIND
            )
            self.data.append((data_seed, source, train, test, soft, aux))
        self.items = [(j, mode) for j in range(self.POOL) for mode in self.MODES]

    def run(self, k: int):
        j, mode = self.items[k]
        data_seed, source, train, test, soft, aux = self.data[j]
        config = datagen.benchmark_transfer_config(mode, seed=data_seed)
        if mode == "init":
            return training.init_transfer_train(source, train, test, config)
        if mode == "knowledge":
            return training.knowledge_transfer_train(source, train, test, soft, config)
        return training.data_transfer_train(source, train, test, aux, config)

    def check(self, k: int, report):
        test = self.data[self.items[k][0]][3]
        problems = []
        losses = [(r.train_loss, r.test_loss) for r in report.records]
        if not all(math.isfinite(x) for pair in losses for x in pair):
            problems.append("non-finite loss")
        final = report.final
        if not _map_above_chance(final.test_map, test.labels, test.num_classes):
            problems.append(f"test mAP {final.test_map!r} not above chance")
        digest = hashlib.sha256(report.checkpoint.params.values.tobytes()).hexdigest()
        return (digest, final.test_map, tuple(losses)), problems

    def test_map(self, summaries: dict) -> float:
        return float(np.mean([summaries[k][1] for k in range(len(self.items))]))

    def warm_up(self) -> list[str]:
        return self.check(0, self.run(0))[1]


class Multicrop:
    """Item: one 3-channel image through paper-scale ``classify_image``."""

    name = "multicrop"
    SHAPES = ((256, 341), (341, 256), (256, 256))
    POOL = 24
    NUM_EVENTS = 4
    BACKGROUND = 0.25
    BLOB = 96
    COLOURS = 0.8 * np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 0]])
    TINT = 0.6
    BETA = 40.0
    SCORE_TOL = 1e-9

    def __init__(self, seed: int, reference: dict, work_dir: str):
        self.seed = seed
        self.reference = reference["multicrop"]
        self.config = pipeline.CropConfig()
        side = self.config.crop_side
        centre = np.zeros((side, side, 3), dtype=bool)
        centre[side // 4 : side - side // 4, side // 4 : side - side // 4] = True
        self.scorers = {
            "object": self._scorer(np.ones((side, side, 3), dtype=bool), seed=1),
            "scene": self._scorer(centre, seed=2),
        }
        pool = [self.make_image(seed, i) for i in range(self.POOL)]
        self.images = [image for image, _ in pool]
        self.labels = np.array([label for _, label in pool])
        self.items = list(range(self.POOL))

    @classmethod
    def make_image(cls, seed: int, i: int):
        """Noise background plus one square blob whose colour codes the class."""
        rng = np.random.default_rng([seed, i])
        h, w = cls.SHAPES[i % len(cls.SHAPES)]
        label = (i // len(cls.SHAPES)) % cls.NUM_EVENTS
        px = rng.uniform(0.0, cls.BACKGROUND, size=(h, w, 3))
        top = int(rng.integers(0, h - cls.BLOB + 1))
        left = int(rng.integers(0, w - cls.BLOB + 1))
        tint = rng.uniform(0.0, cls.TINT, size=3)
        colour = np.minimum(cls.COLOURS[label] + tint, 1.0)
        px[top : top + cls.BLOB, left : left + cls.BLOB] = colour
        return pipeline.ImageBuffer(px), label

    def _scorer(self, mask: np.ndarray, seed: int):
        """Linear checkpoint on 224*224*3 inputs scoring the masked mean colour.

        The logit of class k is BETA times the masked mean pixel, less the
        background mean, projected on the unit class colour: linear in the
        mean-subtracted crop, so one affine head scores it.
        """
        side = self.config.crop_side
        net = network.NetworkConfig(
            input_dim=side * side * 3, trunk=(), heads=(self.NUM_EVENTS,), dropout_rate=0.0
        )
        params = network.init_params(net, seed)
        units = self.COLOURS / np.linalg.norm(self.COLOURS, axis=1, keepdims=True)
        per_channel = mask / mask[:, :, 0].sum()
        weights = per_channel[..., None] * units.T  # (h, w, c, class)
        params.view("head0.W")[:] = self.BETA * weights.reshape(-1, self.NUM_EVENTS)
        offset = pipeline.DEFAULT_MEAN_PIXEL - self.BACKGROUND / 2
        params.view("head0.b")[:] = self.BETA * offset * units.sum(axis=1)

        def score(crops):
            # one crop (h, w, c) gives one row; a stack (n, h, w, c) gives n rows
            x = np.asarray(crops, dtype=np.float64)
            probs = network.forward(
                net, params, x.reshape(-1, net.input_dim), mode="eval"
            ).head_prob[0]
            return probs[0] if x.ndim == 3 else probs

        return score

    def run(self, k: int):
        scores, _ = pipeline.classify_image(self.images[k], self.config, self.scorers)
        return scores

    def _problems(self, scores, expected) -> list[str]:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (self.NUM_EVENTS,) or not np.all(np.isfinite(scores)):
            return [f"fused scores have shape {scores.shape} or non-finite entries"]
        problems = []
        if np.any(scores < 0) or abs(scores.sum() - 1.0) > self.SCORE_TOL:
            problems.append(f"fused scores off the simplex: sum {scores.sum()!r}")
        if expected is not None and np.max(np.abs(scores - expected)) > self.SCORE_TOL:
            problems.append("fused scores differ from the stored reference by > 1e-9")
        return problems

    def check(self, k: int, scores):
        expected = self.reference[k] if self.seed == REFERENCE_SEED else None
        return tuple(float(x) for x in scores), self._problems(scores, expected)

    def test_map(self, summaries: dict) -> float:
        scores = np.array([summaries[k] for k in self.items])
        return training.evaluate(scores, self.labels).mean_ap

    def warm_up(self) -> list[str]:
        image, _ = self.make_image(REFERENCE_SEED, 0)
        scores, _ = pipeline.classify_image(image, self.config, self.scorers)
        return self._problems(scores, self.reference[0])

    def reference_outputs(self) -> list:
        return [[float(x) for x in self.run(k)] for k in self.items]


class Concepts:
    """Item: one seed's concept vocabulary (objects and scenes) selected."""

    name = "concepts"
    POOL = 3
    NUM_EVENTS = 50
    N_TRAIN = 2000
    N_TEST = 500
    SPOT_CLASSES = 16
    SPOT_K = 4

    def __init__(self, seed: int, reference: dict, work_dir: str):
        self.seed = seed
        self.reference = reference["concepts"]
        self.vocabularies = [self.make_vocabulary(seed, j) for j in range(self.POOL)]
        self.items = list(range(self.POOL))

    @classmethod
    def make_vocabulary(cls, seed: int, j: int):
        config = datagen.GeneratorConfig(
            num_events=cls.NUM_EVENTS,
            num_objects=1000,
            num_scenes=365,
            signature_sparsity=4,
            concentration=8.0,
            noise_sigma=0.5,
            n_train=cls.N_TRAIN,
            n_test=cls.N_TEST,
            seed=1000 * seed + j,
        )
        objects, scenes, labels, _ = datagen.gen_response_data(config)
        n = cls.N_TRAIN
        train_labels = stats.EventLabels(labels.labels[:n], cls.NUM_EVENTS)
        streams = []
        for matrix, k in (
            (objects, selection.DEFAULT_K_OBJECTS),
            (scenes, selection.DEFAULT_K_SCENES),
        ):
            train = stats.ResponseMatrix(matrix.values[:n], matrix.class_ids, matrix.kind)
            streams.append((train, matrix.values[n:], k))
        return streams, train_labels, labels.labels[n:]

    def _select(self, vocabulary):
        streams, train_labels, _ = vocabulary
        out = []
        for train, _, k in streams:
            table = stats.estimate_conditional(train, train_labels)
            posterior = stats.bayes_posterior(table)
            problem = selection.SelectionProblem.from_posterior(posterior, k=k)
            greedy = selection.greedy_select(problem)
            # exact oracle on the lowest-entropy classes, 1,820 subsets
            spot = np.argsort(problem.phi, kind="stable")[: self.SPOT_CLASSES]
            sub = stats.PosteriorTable(
                post=posterior.post[spot],
                marginal=posterior.marginal[spot],
                undefined_mask=posterior.undefined_mask[spot],
            )
            spot_problem = selection.SelectionProblem.from_posterior(sub, k=self.SPOT_K)
            spot_greedy = selection.greedy_select(spot_problem)
            _, oracle_energy = selection.exhaustive_select(spot_problem)
            out.append((posterior, greedy, spot_greedy, oracle_energy))
        return out

    def run(self, k: int):
        return self._select(self.vocabularies[k])

    def _summary(self, vocabulary, out, expected):
        streams, _, test_labels = vocabulary
        problems, summary = [], []
        for (_, test_rows, k), (posterior, greedy, spot, oracle), ref in zip(
            streams, out, expected or [None] * len(out)
        ):
            picked = greedy.selected
            if len(set(picked)) != k or posterior.undefined_mask[picked].any():
                problems.append(f"greedy picked {len(set(picked))} of {k} unmasked classes")
            if ref is not None and picked != ref:
                problems.append("greedy selection differs from the stored reference")
            if not oracle <= spot.energy + ENERGY_TOL:
                problems.append(f"oracle energy {oracle!r} above greedy {spot.energy!r}")
            # event scores from the selected concepts only: responses x posterior
            scores = test_rows[:, picked] @ posterior.post[picked]
            test_map = training.evaluate(scores, test_labels).mean_ap
            if not _map_above_chance(test_map, test_labels, self.NUM_EVENTS):
                problems.append(f"selected-concept mAP {test_map!r} not above chance")
            summary.append((tuple(picked), oracle, spot.energy, test_map))
        return tuple(summary), problems

    def check(self, k: int, out):
        expected = self.reference[k] if self.seed == REFERENCE_SEED else None
        return self._summary(self.vocabularies[k], out, expected)

    def test_map(self, summaries: dict) -> float:
        return float(np.mean([s[3] for k in self.items for s in summaries[k]]))

    def warm_up(self) -> list[str]:
        vocabulary = self.make_vocabulary(REFERENCE_SEED, 0)
        return self._summary(vocabulary, self._select(vocabulary), self.reference[0])[1]

    def reference_outputs(self) -> list:
        return [[out[1].selected for out in self.run(k)] for k in self.items]


class Walkthrough:
    """Item: one pass of the README CLI sequence, in-process, into a fresh dir."""

    name = "walkthrough"
    POOL = 6  # gen seeds per workload seed
    NUM_EVENTS = 4
    MODES = ("data", "init", "knowledge")
    MODE_HEADER = "mode,final_iter,train_loss,test_loss,test_acc,test_map"

    def __init__(self, seed: int, reference: dict, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        # README step 5 reads runs/ckpt_{o,s}.json, which no step writes:
        # linear scorers over 16x16x1 crops, one per stream
        self.checkpoints = []
        for stream, init_seed in (("o", 1), ("s", 2)):
            net = network.NetworkConfig(
                input_dim=16 * 16, trunk=(), heads=(self.NUM_EVENTS,), dropout_rate=0.0
            )
            path = os.path.join(self.work_dir, f"ckpt_{stream}.json")
            ckpt = network.Checkpoint(config=net, params=network.init_params(net, init_seed))
            io.write_checkpoint_json(path, ckpt)
            self.checkpoints.append(path)
        self.items = list(range(self.POOL))

    def commands(self, k: int, runs: str) -> list[list[str]]:
        seed = str(1000 * self.seed + k)
        vec = os.path.join(runs, "vec")
        train = ["--train", f"{vec}/train.csv", "--test", f"{vec}/test.csv"]
        schedule = ["--schedule", "300", "--dropout", "0.5"]
        return [
            ["gen", "--preset", "responses", "--seed", seed, "--out", f"{runs}/resp"],
            ["stats", "--responses", f"{runs}/resp/object_responses.csv",
             "--labels", f"{runs}/resp/labels.csv", "--out", f"{runs}/stats"],
            ["select", "--table", f"{runs}/stats/conditional.json", "--k", "8",
             "--out", f"{runs}/select"],
            ["gen", "--preset", "vectors", "--seed", seed, "--out", vec],
            ["train", "--mode", "init", *train, *schedule, "--out", f"{runs}/init"],
            ["train", "--mode", "knowledge", *train,
             "--soft-targets", f"{vec}/soft_targets.json", *schedule,
             "--out", f"{runs}/knowledge"],
            ["train", "--mode", "data", *train, "--aux", f"{vec}/aux.csv", *schedule,
             "--out", f"{runs}/data"],
            ["gen", "--preset", "images", "--seed", seed, "--out", f"{runs}/imgs"],
            ["infer", "--checkpoint-o", self.checkpoints[0],
             "--checkpoint-s", self.checkpoints[1], "--image-dir", f"{runs}/imgs/test",
             "--base-side", "32", "--crop-side", "16", "--out", f"{runs}/infer"],
            ["report", "--run-dir", runs, "--out", f"{runs}/report"],
        ]

    def run(self, k: int):
        runs = tempfile.mkdtemp(prefix="runs-", dir=self.work_dir)
        codes = [cli.run(argv) for argv in self.commands(k, runs)]
        return runs, codes

    def check(self, k: int, out):
        runs, codes = out
        try:
            problems = [
                f"os2e {argv[0]} returned {code}"
                for argv, code in zip(self.commands(k, runs), codes)
                if code != 0
            ]
            scores = self._read(os.path.join(runs, "infer", "scores.csv"))
            modes = self._read(os.path.join(runs, "report", "mode_comparison.csv"))
            problems += self._check_scores(scores) + self._check_modes(modes)
            test_maps = tuple(
                float(line.split(",")[5]) for line in modes.splitlines()[1:]
            ) if not problems else ()
            digest = hashlib.sha256(scores.encode()).hexdigest()
            return (digest, modes, test_maps), problems
        finally:
            shutil.rmtree(runs)

    @staticmethod
    def _read(path: str) -> str:
        if not os.path.exists(path):
            return ""
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()

    def _check_scores(self, text: str) -> list[str]:
        lines = text.splitlines()
        header = "image_id," + ",".join(f"score_{k}" for k in range(self.NUM_EVENTS))
        if not lines or lines[0] != header:
            return ["scores.csv is missing or has a wrong header"]
        if len(lines) != 1 + datagen.preset_image_benchmark().n_test:
            return [f"scores.csv has {len(lines) - 1} rows"]
        for line in lines[1:]:
            cells = line.split(",")
            try:
                row = np.array([float(c) for c in cells[1:]])
            except ValueError:
                return [f"scores.csv row {cells[0]!r} is not numeric"]
            if (
                row.size != self.NUM_EVENTS
                or not np.all(np.isfinite(row))
                or np.any(row < 0)
                or abs(row.sum() - 1.0) > 1e-9
            ):
                return [f"scores.csv row {cells[0]!r} is off the simplex"]
        return []

    def _check_modes(self, text: str) -> list[str]:
        lines = text.splitlines()
        if not lines or lines[0] != self.MODE_HEADER:
            return ["mode_comparison.csv is missing or has a wrong header"]
        rows = [line.split(",") for line in lines[1:]]
        if tuple(r[0] for r in rows) != self.MODES or any(len(r) != 6 for r in rows):
            return ["mode_comparison.csv does not list the three modes"]
        try:
            values = [float(x) for r in rows for x in r[1:]]
        except ValueError:
            return ["mode_comparison.csv has a non-numeric cell"]
        if not all(math.isfinite(v) for v in values):
            return ["mode_comparison.csv has a non-finite cell"]
        if not all(0.0 < float(r[5]) <= 1.0 for r in rows):
            return ["mode_comparison.csv has a test_map outside (0, 1]"]
        return []

    def test_map(self, summaries: dict) -> float:
        return float(np.mean([summaries[k][2] for k in self.items]))

    def warm_up(self) -> list[str]:
        return self.check(0, self.run(0))[1]


WORKLOADS = {cls.name: cls for cls in (Transfer, Multicrop, Concepts, Walkthrough)}
