"""The four benchmark workloads, each one repeat: set up, time, check.

Every workload runs challenge ``maggiore-like`` in mode ``betail`` and
takes its inputs from the workload seed, which sets the run seed and the
demonstration seed. A workload is a function of a ``Repeat`` context
(see repeat.py): it builds its inputs, runs the timed part inside
``ctx.timed()``, then records checks, a fingerprint of its outputs, the
work it did in its own unit, and any extra values.

Sizes are racelab config overrides, so each workload's work is stated in
the package's own schema. ``full`` is the benchmark; ``tiny`` only
exercises the harness (selftest.py).
"""

import copy
import filecmp
import hashlib
import json
import math
import os

import numpy as np
from racelab import ail, bet, cli, config, evaluate, expert, nets, policies, track
from racelab.seeding import stream

SIZES = {
    "full": {
        "smoke-run": {},
        "bet-pretrain": {"bet": {"updates": 50, "stop_loss": 0.0}},
        "desk-finetune": {"train": {"sac": {"gradient_steps": 40}}},
        "wide-eval": {"train": {"eval_cars": 256, "eval_max_steps": 200}},
    },
    "tiny": {
        "smoke-run": {"demos": {"laps": 1}, "bet": {"updates": 3},
                      "train": {"iterations": 1, "rollout_steps": 30, "eval_max_steps": 30,
                                "disc_updates": 2, "sac": {"batch": 64, "gradient_steps": 2}}},
        "bet-pretrain": {"demos": {"laps": 2}, "bet": {"updates": 2, "stop_loss": 0.0}},
        "desk-finetune": {"demos": {"laps": 2},
                          "train": {"n_cars": 2, "rollout_steps": 40, "disc_updates": 2,
                                    "demo_batch": 32, "sac": {"batch": 32, "gradient_steps": 2}}},
        "wide-eval": {"demos": {"laps": 2}, "train": {"eval_cars": 4, "eval_max_steps": 5}},
    },
}


def _deep_update(base, override):
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = copy.deepcopy(value)
    return base


def _config_doc(ctx, profile="desk"):
    doc = {"profile": profile, "challenge": "maggiore-like", "mode": "betail",
           "seed": ctx.seed, "demos": {"seed": ctx.seed}}
    return _deep_update(doc, SIZES[ctx.scale][ctx.workload])


def _course(cfg):
    """Target course and demonstrations, built the way `racelab run` builds them."""
    spec = dict(cfg.track_spec)
    course = track.gen_track(spec.pop("preset"), **spec)
    demos = expert.generate_demos(course, cfg.vehicle, cfg.episode, cfg.expert,
                                  cfg.demo_laps, cfg.demo_seed)
    return course, demos


def _desk_stack(cfg, demos):
    """betail stack over a desk-architecture BeT initialised from the seed.

    Per-step compute does not depend on the weights, and bet-pretrain
    already covers pretraining, so the base is not trained here.
    """
    base = bet.BeT(cfg.bet, stream(cfg.seed, "init", 3))
    return policies.build_policy_stack(
        cfg.mode, demos.normalizer, demos.obs_dim, stream(cfg.seed, "init", 0),
        alpha=cfg.alpha, bet=base, hidden=cfg.train.policy_hidden,
        bet_normalizer=demos.normalizer)


def _numbers(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)
    else:
        yield float(value)


def all_finite(*values):
    return all(math.isfinite(x) for x in _numbers(list(values)))


def trainer_arrays(trainer):
    """Every array a checkpoint bundle stores, by name."""
    sac = trainer.sac
    named = {"res": trainer.stack.residual.params(), "q1": sac.q1.params(),
             "q2": sac.q2.params(), "q1_t": sac.q1_t.params(), "q2_t": sac.q2_t.params(),
             "disc": trainer.disc.params(), "bet": trainer.stack.bet.params()}
    out = {f"{net}.{name}": p.data for net, params in named.items()
           for name, p in params.items()}
    optimizers = {"pi": sac.opt_pi, "q1": sac.opt_q1, "q2": sac.opt_q2,
                  "disc": trainer.opt_disc}
    for group, opt in optimizers.items():
        state = opt.state_dict()
        for moment in ("m", "v"):
            out.update({f"opt.{group}.{moment}.{name}": a for name, a in state[moment].items()})
    out["replay"] = trainer.replay.state_arrays()["data"]
    return out


def same_arrays(a, b):
    """Byte-identical arrays under identical names."""
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def digest(named_arrays):
    h = hashlib.sha256()
    for name in sorted(named_arrays):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(named_arrays[name]).tobytes())
    return h.hexdigest()


def smoke_run(ctx):
    """`racelab run` at the smoke profile into a fresh output directory."""
    doc = _config_doc(ctx, profile="smoke")
    cfg_path = os.path.join(ctx.dir, "config.json")
    out = os.path.join(ctx.dir, "run")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with ctx.timed():
        code = cli.main(["run", "--config", cfg_path, "--out", out])
    ctx.check("cli_exit_zero", code == cli.EXIT_OK)

    def read_json(*parts):
        with open(os.path.join(out, *parts), "r", encoding="utf-8") as fh:
            return json.load(fh)

    # A file that does not parse raises, and the repeat fails its exit check.
    summary = read_json("summary.json")
    history = read_json("bet_pretrain.json")["loss_history"]
    manifest = read_json("bundle", "manifest.json")
    read_json("config.json")
    ckpts = [os.path.relpath(os.path.join(root, f), out) for root, _, files in os.walk(out)
             for f in files if f.endswith(".ckpt")]
    metas = {rel: nets.load_params(os.path.join(out, rel))[0] for rel in ckpts}
    replay = os.path.join("bundle", "replay.ckpt")
    expected = {"demos.ckpt", "bet.ckpt", replay} | {
        os.path.join("bundle", f"{name}.ckpt") for name in ("residual", "q1", "q2", "disc", "optim")}
    ctx.check("outputs_parse", expected <= metas.keys())
    ctx.check("finite", all_finite(summary, history, manifest["curve"]))
    ctx.check("replay_len", metas.get(replay, {}).get("n") == manifest["env_steps"] > 0)

    run_cfg = config.build_config(doc)
    course = track.load_track(os.path.join(out, "track.json"))
    demos = expert.DemoSet.load(os.path.join(out, "demos.ckpt"))
    bundle = os.path.join(out, "bundle")
    loaded, _ = ail.load_bundle(bundle, course, run_cfg.vehicle, run_cfg.episode, demos)
    copy_dir = os.path.join(ctx.dir, "bundle-copy")
    ail.save_bundle(copy_dir, loaded)
    names = sorted(f for f in os.listdir(bundle) if f.endswith(".ckpt"))
    ctx.check("bundle_roundtrip", names == sorted(
        f for f in os.listdir(copy_dir) if f.endswith(".ckpt")) and all(
        filecmp.cmp(os.path.join(bundle, f), os.path.join(copy_dir, f), shallow=False)
        for f in names))

    h = hashlib.sha256()
    for rel in ("summary.json", "bet.ckpt", os.path.join("bundle", "residual.ckpt")):
        with open(os.path.join(out, rel), "rb") as fh:
            h.update(fh.read())
    ctx.fingerprint = h.hexdigest()
    ctx.work, ctx.work_unit = int(manifest["env_steps"]), "training env steps"
    ctx.extra["bet_final_loss"] = history[-1]


def bet_pretrain(ctx):
    """Behaviour-clone the desk-architecture BeT for a fixed number of updates."""
    cfg = config.build_config(_config_doc(ctx))
    _, demos = _course(cfg)
    model = bet.BeT(cfg.bet, stream(cfg.seed, "init", 3))
    with ctx.timed():
        history = bet.pretrain(model, demos, cfg.seed)
    params = {name: p.data for name, p in model.params().items()}
    ctx.check("finite", all_finite(history) and all(np.isfinite(a).all() for a in params.values()))
    ctx.check("updates_run", len(history) == cfg.bet.updates)
    ctx.fingerprint = digest({**params, "history": np.asarray(history)})
    ctx.work, ctx.work_unit = len(history) * cfg.bet.batch_size, "BeT training windows"
    ctx.extra["bet_final_loss"] = history[-1]


def desk_finetune(ctx):
    """One desk Trainer.iteration, then a save_bundle -> load_bundle round trip."""
    cfg = config.build_config(_config_doc(ctx))
    course, demos = _course(cfg)
    trainer = ail.Trainer(_desk_stack(cfg, demos), course, cfg.vehicle, cfg.episode, demos,
                          cfg.train, cfg.seed)
    bundle = os.path.join(ctx.dir, "bundle")
    with ctx.timed():
        metrics = trainer.iteration(0)
        ail.save_bundle(bundle, trainer)
        loaded, _ = ail.load_bundle(bundle, course, cfg.vehicle, cfg.episode, demos, cfg.train)
    arrays = trainer_arrays(trainer)
    ctx.check("finite", "sac" in metrics and "disc" in metrics and all_finite(metrics))
    ctx.check("replay_len", len(trainer.replay) == trainer.env_steps
              == cfg.train.n_cars * cfg.train.rollout_steps)
    ctx.check("bundle_roundtrip", same_arrays(arrays, trainer_arrays(loaded)))
    ctx.fingerprint = digest(arrays)
    ctx.work, ctx.work_unit = trainer.env_steps, "env steps collected"


def wide_eval(ctx):
    """Lap-protocol evaluation of the betail stack over many cars."""
    cfg = config.build_config(_config_doc(ctx))
    course, demos = _course(cfg)
    stack = _desk_stack(cfg, demos)
    n_cars, max_steps = cfg.train.eval_cars, cfg.train.eval_max_steps
    with ctx.timed():
        report = evaluate.evaluate(stack, course, cfg.vehicle, cfg.episode, demos,
                                   n_cars=n_cars, max_steps=max_steps, seed=cfg.seed)
    # The protocol stops early only once every car has crossed the line.
    steps = max_steps
    if all(report.finished):
        steps = round(max(report.lap_times) / cfg.episode.dt)
    result = report.to_dict()
    ctx.check("finite", all_finite(result))
    ctx.check("cars", report.n_cars == len(report.finished) == n_cars)
    ctx.fingerprint = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    ctx.work, ctx.work_unit = n_cars * steps, "car-steps evaluated"


WORKLOADS = {
    "smoke-run": smoke_run,
    "bet-pretrain": bet_pretrain,
    "desk-finetune": desk_finetune,
    "wide-eval": wide_eval,
}
