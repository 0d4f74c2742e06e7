"""In-memory span tracer for one benchmark repeat.

The tracer wraps racelab's public functions from outside the package.
Each wrapper goes on the attribute its caller looks up: a function that a
module imports with ``from .x import f`` is bound in that module too, so
every such binding is wrapped (``racelab.cli.generate_demos`` as well as
``racelab.expert.generate_demos``). Methods are wrapped on their class.

A span is ``[name, start, end, parent, tensors]``: perf_counter seconds,
the index of the enclosing span (-1 for none), and the number of autodiff
``Tensor`` objects constructed while it was open.
"""

import functools
import importlib
import json
import os
import statistics
import time

# Span name -> the attributes to wrap, as "module:attribute path".
SPANS = {
    "track.gen_track": ["racelab.track:gen_track", "racelab.cli:gen_track"],
    "expert.generate_demos": ["racelab.expert:generate_demos", "racelab.cli:generate_demos"],
    "track.project_many": ["racelab.track:Track.project_many"],
    "track.frames": ["racelab.track:Track.frames"],
    "vehicle.step": ["racelab.vehicle:step"],
    "env.step": ["racelab.env:RaceEnv.step"],
    "ail.rollout": ["racelab.ail:rollout"],
    "bet.pretrain": ["racelab.bet:pretrain"],
    "bet.train_step": ["racelab.bet:train_step"],
    "bet.forward": ["racelab.bet:BeT.forward"],
    "autodiff.backward": ["racelab.autodiff:backward"],
    "optim.lamb_step": ["racelab.optim:Lamb.step"],
    "optim.adam_step": ["racelab.optim:Adam.step"],
    "bet.predict_last": ["racelab.bet:BeT.predict_last"],
    "policies.base_action": ["racelab.policies:PolicyStack.base_action"],
    "policies.sample_np": ["racelab.policies:GaussianPolicy.sample_np"],
    "ail.iteration": ["racelab.ail:Trainer.iteration"],
    "ail.disc_update": ["racelab.ail:disc_update"],
    "ail.replay_sample": ["racelab.ail:ReplayBuffer.sample"],
    "ail.sac_update": ["racelab.ail:SACTrainer.update"],
    "evaluate.evaluate": ["racelab.evaluate:evaluate"],
    "ail.save_bundle": ["racelab.ail:save_bundle"],
    "ail.load_bundle": ["racelab.ail:load_bundle"],
}

# Every binding of the checkpoint writer; each call adds the file's size.
SAVE_PARAMS = ["racelab.nets:save_params", "racelab.expert:save_params",
               "racelab.env:save_params"]


def _resolve(target):
    """'pkg.mod:Cls.attr' -> (owner object, attribute name)."""
    module, path = target.split(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []
        self.tensors = 0
        self.checkpoint_bytes = 0
        self._open = []
        self._undo = []

    def install(self):
        for name, targets in SPANS.items():
            for target in targets:
                self._patch(target, lambda fn, name=name: self._span(name, fn))
        for target in SAVE_PARAMS:
            self._patch(target, self._counting_save)
        self._patch("racelab.autodiff:Tensor.__init__", self._counting_init)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, target, make_wrapper):
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((owner, attr, original))

    def _span(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, open_[-1] if open_ else -1, self.tensors]
            open_.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                rec[2] = clock()
                rec[4] = self.tensors - rec[4]

        return wrapper

    def _counting_save(self, fn):
        def wrapper(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            self.checkpoint_bytes += os.path.getsize(path)
            return out

        return wrapper

    def _counting_init(self, fn):
        def wrapper(obj, *args, **kwargs):
            self.tensors += 1
            fn(obj, *args, **kwargs)

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tensors"],
                       "spans": self.spans}, fh)

    def summary(self, window):
        """Per-span calls, total and self seconds, median call in ms and
        tensors built, plus the share of the timed window (start, end) that
        no root span covers."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tensors": 0,
                         "durations_ms": []} for name in SPANS}
        covered = 0.0
        for i, (name, start, end, parent, tensors) in enumerate(self.spans):
            agg = layers[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s[i]
            agg["tensors"] += tensors
            agg["durations_ms"].append((end - start) * 1e3)
            if parent < 0:
                covered += max(0.0, min(end, window[1]) - max(start, window[0]))
        for agg in layers.values():
            durations = agg.pop("durations_ms")
            agg["ms_p50"] = statistics.median(durations) if durations else 0.0
        wall = window[1] - window[0]
        return {"layers": layers, "checkpoint_bytes": self.checkpoint_bytes,
                "unspanned_share": 1.0 - covered / wall}
