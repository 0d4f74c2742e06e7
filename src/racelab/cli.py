"""Command-line orchestration of the racing imitation pipeline.

Subcommands wrap the module operations: ``gen-track`` and ``gen-demos``
produce the course and demonstration files, ``pretrain-bet`` fits the
frozen sequence base, ``train`` runs one fine-tuning mode, ``eval`` and
``report`` regenerate evaluation artifacts from checkpoints, ``bet-info``
inspects a base checkpoint, and ``run`` executes a whole layout end to
end (and resumes from the latest bundle when interrupted).

Every subcommand accepts ``--config`` (a JSON document; the single
source of truth for a run), ``--seed``, and ``--out``. The default
output root comes from the RACELAB_OUT environment variable (fallback
``./runs``). One run owns an output directory at a time, enforced by a
``.lock`` file. Exit codes: 0 success, 1 configuration error, 2 runtime
failure.
"""

import argparse
import contextlib
import json
import os
import sys
import traceback

import numpy as np

from . import ail
from . import bet as bet_mod
from . import evaluate as eval_mod
from . import nets
from .config import CONTENT_VERSION, ConfigError, build_config
from .env import EpisodeConfig
from .evaluate import EvalReport, emit_report
from .vehicle import VehicleParams
from .expert import DemoSet, generate_demos
from .policies import MODE_SPECS, TRAIN_MODES, PolicyStack, build_policy_stack, train_bc
from .seeding import stream
from .track import gen_track, load_track, save_track

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit 1, not argparse's 2)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="racelab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override the run seed")
        sp.add_argument("--out", default=None, help="output directory")
        return sp

    sp = add("gen-track", "generate (or copy) the target course file")
    sp.add_argument("--preset", choices=["circle", "oval", "random"], default=None)
    sp.add_argument("--track-seed", type=int, default=None)
    sp.add_argument("--half-width", type=float, default=None)

    sp = add("gen-demos", "record scripted demonstration laps on the target course")
    sp.add_argument("--laps", type=int, default=None, help="override the lap count")

    add("pretrain-bet", "fit the sequence base on the pretraining course demos")

    sp = add("train", "fine-tune a policy stack on the target course")
    sp.add_argument("--mode", choices=list(TRAIN_MODES), default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--bet", default=None, help="sequence-base checkpoint path")

    sp = add("eval", "evaluate a checkpoint with the lap protocol")
    sp.add_argument("--bundle", default=None, help="checkpoint bundle directory")
    sp.add_argument("--bet", default=None, help="evaluate a bare sequence base")
    sp.add_argument("--track", default=None, help="course file (bare-base eval)")
    sp.add_argument("--demos", default=None, help="demo file (bare-base eval)")
    sp.add_argument("--cars", type=int, default=None)
    sp.add_argument("--max-steps", type=int, default=None)
    sp.add_argument("--tag", type=int, default=None, help="evaluation stream tag")

    sp = add("report", "re-emit report files from a bundle without recomputation")
    sp.add_argument("--bundle", default=None, help="checkpoint bundle directory")

    sp = add("bet-info", "print a sequence-base checkpoint's metadata")
    sp.add_argument("--bet", default=None, help="checkpoint path", required=False)

    add("run", "execute the configured layout end to end (resumable)")
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing

def _load_cfg(args, need_mode, need_track=True):
    doc = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["out"] = args.out
    if getattr(args, "mode", None):
        doc["mode"] = args.mode
    if getattr(args, "alpha", None) is not None:
        doc["alpha"] = args.alpha
    if getattr(args, "preset", None):
        doc["track"] = {"preset": args.preset}
    if getattr(args, "track_seed", None) is not None:
        doc.setdefault("track", {})["seed"] = args.track_seed
    if getattr(args, "half_width", None) is not None:
        doc.setdefault("track", {})["half_width"] = args.half_width
    if getattr(args, "laps", None) is not None:
        doc.setdefault("demos", {})["laps"] = args.laps
    if not need_mode and "mode" not in doc:
        # Course and demo generation do not depend on the mode; any
        # non-residual placeholder keeps the schema satisfied.
        doc["mode"] = "ail"
    if not need_track and "track" not in doc and "challenge" not in doc:
        # Checkpoint-driven commands carry their own course context.
        doc["track"] = {"preset": "circle"}
    return build_config(doc)


def _out_dir(cfg):
    if cfg.out:
        return cfg.out
    root = os.environ.get("RACELAB_OUT", "runs")
    return os.path.join(root, f"{cfg.mode}-s{cfg.seed}-{cfg.hash[:8]}")


def _claim(lock):
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as fh:
        fh.write(f"{os.getpid()}\n")
    return True


def _lock_pid(lock):
    """The pid a lock file records, or None when it records none."""
    try:
        with open(lock, "r", encoding="utf-8") as fh:
            pid = int(fh.read().strip())
    except (OSError, ValueError):
        return None
    return pid if pid > 0 else None


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        pass
    return True


@contextlib.contextmanager
def _locked(out_dir):
    """Hold ``out_dir/.lock``, which records this process's pid.

    A lock whose pid is no longer alive was left by a run that was killed;
    it is reclaimed. A lock held by a live process, or one whose pid cannot
    be read (its owner may not have written it yet), refuses the run.
    """
    os.makedirs(out_dir, exist_ok=True)
    lock = os.path.join(out_dir, ".lock")
    if not _claim(lock):
        holder = _lock_pid(lock)
        if holder is None or _pid_alive(holder):
            owner = "another run" if holder is None else f"the run with pid {holder}"
            raise RuntimeError(
                f"output directory {out_dir} is locked by {owner} "
                f"(remove {lock} if that run is gone)"
            )
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)
        if not _claim(lock):
            raise RuntimeError(f"output directory {out_dir} was claimed by another run")
    try:
        yield
    finally:
        try:
            os.unlink(lock)
        except FileNotFoundError:
            pass


def _trace(cfg):
    return {"config_hash": cfg.hash, "content_version": CONTENT_VERSION, "seed": cfg.seed}


def _track_from_spec(spec, default_seed=0):
    spec = dict(spec)
    if "path" in spec:
        return load_track(spec["path"])
    preset = spec.pop("preset", None)
    if preset is None:
        raise ConfigError("track spec needs a 'preset' (circle/oval/random) or a 'path'")
    seed = spec.pop("seed", default_seed)
    half_width = spec.pop("half_width", 6.0)
    return gen_track(preset, seed=seed, half_width=half_width, **spec)


def _ensure_track(cfg, out_dir, spec, rel_path):
    path = os.path.join(out_dir, rel_path)
    if os.path.exists(path):
        return load_track(path), path
    track = _track_from_spec(spec)
    track.meta.update(_trace(cfg))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save_track(track, path)
    return track, path


def _ensure_demos(cfg, out_dir, track, rel_path, laps):
    path = os.path.join(out_dir, rel_path)
    if os.path.exists(path):
        return DemoSet.load(path), path
    demos = generate_demos(track, cfg.vehicle, cfg.episode, cfg.expert, laps, cfg.demo_seed)
    demos.meta.update(_trace(cfg))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    demos.save(path)
    return demos, path


def _require(path, what, hint):
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing {what}: {path} ({hint})")


def _write_config_snapshot(cfg, out_dir):
    path = os.path.join(out_dir, "config.json")
    snapshot = {"resolved": cfg.resolved, **_trace(cfg)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _pretrain_bet(cfg, out_dir):
    """Fit the sequence base on the pretraining course(s); returns its path."""
    demosets = []
    for i, spec in enumerate(cfg.pretrain_track_specs):
        track, _ = _ensure_track(cfg, out_dir, spec, os.path.join("pretrain", f"track_{i}.json"))
        demos, _ = _ensure_demos(cfg, out_dir, track, os.path.join("pretrain", f"demos_{i}.ckpt"),
                                 cfg.demo_laps_pretrain)
        demosets.append(demos)
    merged = demosets[0] if len(demosets) == 1 else DemoSet.merge(demosets)
    model = bet_mod.BeT(cfg.bet, stream(cfg.seed, "init", 3))

    def progress(update, loss, ema):
        print(f"  base pretrain update {update}: loss {loss:.5f} (ema {ema:.5f})", flush=True)

    history = bet_mod.pretrain(model, merged, cfg.seed, progress=progress)
    bet_path = os.path.join(out_dir, "bet.ckpt")
    bet_mod.save_bet(bet_path, model, merged.normalizer,
                     extra={**_trace(cfg), "updates_run": len(history),
                            "final_loss": history[-1]})
    with open(os.path.join(out_dir, "bet_pretrain.json"), "w", encoding="utf-8") as fh:
        json.dump({"loss_history": history, **_trace(cfg)}, fh, sort_keys=True)
        fh.write("\n")
    print(f"sequence base: {len(history)} updates, final loss {history[-1]:.5f} -> {bet_path}")
    return bet_path


def _train_bc_base(cfg, demos, out_dir):
    bc_cfg = cfg.bc
    net, history = train_bc(demos, bc_cfg["hidden"], bc_cfg["updates"], bc_cfg["batch"],
                            bc_cfg["lr"], cfg.seed, stream)
    path = os.path.join(out_dir, "bc.ckpt")
    nets.save_params(path, net.params(), {"kind": "bc", "dims": net.dims,
                                          "final_loss": history[-1], **_trace(cfg)})
    print(f"cloned base: {len(history)} updates, final loss {history[-1]:.5f} -> {path}")
    return net


def _build_trainer(cfg, out_dir, track, demos, bet_path=None):
    """Construct (or resume) the Trainer for an online mode."""
    bundle_dir = os.path.join(out_dir, "bundle")
    if os.path.exists(os.path.join(bundle_dir, "manifest.json")):
        trainer, manifest = ail.load_bundle(bundle_dir, track, cfg.vehicle, cfg.episode,
                                            demos, cfg.train)
        print(f"resuming from {bundle_dir} at iteration {trainer.iteration_count}")
        return trainer
    spec = MODE_SPECS[cfg.mode]
    bet = bet_normalizer = bc = None
    if spec["base"] == "bet":
        path = bet_path or os.path.join(out_dir, "bet.ckpt")
        _require(path, "sequence-base checkpoint bet.ckpt", "run pretrain-bet first")
        bet, bet_normalizer, _ = bet_mod.load_bet(path)
    elif spec["base"] == "bc":
        bc = _train_bc_base(cfg, demos, out_dir)
    stack = build_policy_stack(cfg.mode, demos.normalizer, demos.obs_dim,
                               stream(cfg.seed, "init", 0), alpha=cfg.alpha, bet=bet,
                               bc=bc, hidden=cfg.train.policy_hidden,
                               bet_normalizer=bet_normalizer)
    return ail.Trainer(stack, track, cfg.vehicle, cfg.episode, demos, cfg.train, cfg.seed)


def _emit(cfg, out_dir, report, curve, extra_meta=None):
    meta = {**_trace(cfg), **(extra_meta or {})}
    paths = emit_report(report, curve, out_dir, meta=meta)
    print(f"report: success {report.success_rate:.2f}, "
          f"lap {report.lap_time_mean if report.lap_time_mean is not None else 'unfinished'}, "
          f"steering change {report.steering_change_mean:.4f} rad -> {paths[2]}")
    return paths


def _run_training(cfg, out_dir, track, demos, bet_path=None):
    if not MODE_SPECS[cfg.mode]["online"]:
        # Supervised-only mode: fit, evaluate once, report.
        bc = _train_bc_base(cfg, demos, out_dir)
        stack = PolicyStack("bc", demos.normalizer, bc=bc)
        report = eval_mod.evaluate(stack, track, cfg.vehicle, cfg.episode, demos,
                                   n_cars=cfg.train.eval_cars,
                                   max_steps=cfg.train.eval_max_steps,
                                   seed=cfg.seed, tag=0)
        curve = [{"iteration": 0, "env_steps": 0, "success_rate": report.success_rate,
                  "lap_time_mean": report.lap_time_mean,
                  "steering_change_mean": report.steering_change_mean}]
        _emit(cfg, out_dir, report, curve, {"mode": cfg.mode})
        return EXIT_OK
    trainer = _build_trainer(cfg, out_dir, track, demos, bet_path)

    def on_metrics(m):
        line = (f"  iter {m['iteration'] + 1}/{cfg.train.iterations}"
                f" env_steps {m['env_steps']}"
                f" progress/car {m['rollout_progress']:.1f} m")
        if "disc" in m:
            line += f" D(expert) {m['disc']['d_expert']:.3f} D(agent) {m['disc']['d_agent']:.3f}"
        if "sac" in m:
            line += f" reward {m['sac']['mean_reward']:.3f}"
        if "eval_success_rate" in m:
            line += f" | eval success {m['eval_success_rate']:.2f}"
        print(line, flush=True)

    summary = trainer.run(out_dir=out_dir, on_metrics=on_metrics,
                          extra_manifest=_trace(cfg))
    report = EvalReport.from_dict(summary["final_eval"])
    _emit(cfg, out_dir, report, summary["curve"],
          {"mode": cfg.mode, "alpha": summary["alpha"], "env_steps": summary["env_steps"],
           "iterations": summary["iterations"]})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_track(args):
    cfg = _load_cfg(args, need_mode=False)
    out_dir = _out_dir(cfg)
    with _locked(out_dir):
        track, path = _ensure_track(cfg, out_dir, cfg.track_spec, "track.json")
    print(f"track {eval_mod.track_id(track)}: length {track.length:.1f} m, "
          f"half width {track.half_width:.1f} m -> {path}")
    return EXIT_OK


def cmd_gen_demos(args):
    cfg = _load_cfg(args, need_mode=False)
    out_dir = _out_dir(cfg)
    with _locked(out_dir):
        track, _ = _ensure_track(cfg, out_dir, cfg.track_spec, "track.json")
        demos, path = _ensure_demos(cfg, out_dir, track, "demos.ckpt", cfg.demo_laps)
    times = demos.lap_times(cfg.episode.dt)
    print(f"{len(times)} demonstration laps, {np.mean(times):.1f} s mean lap -> {path}")
    return EXIT_OK


def cmd_pretrain_bet(args):
    cfg = _load_cfg(args, need_mode=False)
    out_dir = _out_dir(cfg)
    with _locked(out_dir):
        _write_config_snapshot(cfg, out_dir)
        _pretrain_bet(cfg, out_dir)
    return EXIT_OK


def cmd_train(args):
    cfg = _load_cfg(args, need_mode=True)
    out_dir = _out_dir(cfg)
    with _locked(out_dir):
        _write_config_snapshot(cfg, out_dir)
        track_path = os.path.join(out_dir, "track.json")
        demos_path = os.path.join(out_dir, "demos.ckpt")
        _require(track_path, "course file track.json", "run gen-track first")
        _require(demos_path, "demonstration file demos.ckpt", "run gen-demos first")
        track = load_track(track_path)
        demos = DemoSet.load(demos_path)
        return _run_training(cfg, out_dir, track, demos, bet_path=args.bet)


def cmd_eval(args):
    if args.bundle is None and args.bet is None:
        raise ConfigError("eval needs --bundle or --bet")
    cfg = _load_cfg(args, need_mode=False, need_track=False)
    if args.bundle is not None:
        base_dir = os.path.dirname(os.path.abspath(args.bundle))
        track_path = args.track or os.path.join(base_dir, "track.json")
        demos_path = args.demos or os.path.join(base_dir, "demos.ckpt")
        manifest_path = os.path.join(args.bundle, "manifest.json")
        _require(manifest_path, "bundle manifest",
                 "point --bundle at a checkpoint bundle directory")
        stored = ail.read_manifest(args.bundle)
        _require(track_path, "course file", "pass --track")
        _require(demos_path, "demonstration file", "pass --demos")
        track = load_track(track_path)
        demos = DemoSet.load(demos_path)
        # The bundle records the physics it was trained under; use those.
        vparams = VehicleParams(**stored["vehicle"])
        ecfg = EpisodeConfig(**stored["episode"])
        trainer, manifest = ail.load_bundle(args.bundle, track, vparams, ecfg, demos)
        if args.cars is not None:
            trainer.cfg.eval_cars = args.cars
        if args.max_steps is not None:
            trainer.cfg.eval_max_steps = args.max_steps
        if args.tag is not None:
            trainer.iteration_count = args.tag
        report = trainer.evaluate_now()
        out_dir = args.out or os.path.join(base_dir, "eval")
        meta = {"mode": manifest["mode"], "alpha": manifest["alpha"],
                "env_steps": manifest["env_steps"]}
        curve = manifest.get("curve", [])
    else:
        _require(args.bet, "sequence-base checkpoint", "pass --bet")
        if args.track is None or args.demos is None:
            raise ConfigError("eval --bet needs --track and --demos")
        track = load_track(args.track)
        demos = DemoSet.load(args.demos)
        model, bet_norm, _ = bet_mod.load_bet(args.bet)
        stack = PolicyStack("bet", demos.normalizer, bet=model, bet_normalizer=bet_norm)
        report = eval_mod.evaluate(
            stack, track, cfg.vehicle, cfg.episode, demos,
            n_cars=args.cars or cfg.train.eval_cars,
            max_steps=args.max_steps or cfg.train.eval_max_steps,
            seed=cfg.seed, tag=args.tag or 0)
        out_dir = args.out or "eval"
        meta = {"mode": "bet", "alpha": None}
        curve = []
    _emit(cfg, out_dir, report, curve, meta)
    return EXIT_OK


def cmd_report(args):
    if args.bundle is None:
        raise ConfigError("report needs --bundle")
    _require(os.path.join(args.bundle, "manifest.json"), "bundle manifest",
             "point --bundle at a bundle directory")
    manifest = ail.read_manifest(args.bundle)
    if manifest.get("last_eval") is None:
        raise RuntimeError(f"bundle {args.bundle} holds no evaluation yet; run eval")
    report = EvalReport.from_dict(manifest["last_eval"])
    out_dir = args.out or os.path.join(os.path.dirname(os.path.abspath(args.bundle)), "report")
    meta = {"mode": manifest["mode"], "alpha": manifest["alpha"],
            "env_steps": manifest["env_steps"],
            "config_hash": manifest.get("config_hash"),
            "content_version": manifest.get("content_version", CONTENT_VERSION),
            "seed": manifest["seed"]}
    paths = emit_report(report, manifest.get("curve", []), out_dir, meta=meta)
    print(f"report files -> {', '.join(paths)}")
    return EXIT_OK


def cmd_bet_info(args):
    if args.bet is None:
        raise ConfigError("bet-info needs --bet")
    _require(args.bet, "sequence-base checkpoint", "pass --bet <path>")
    model, normalizer, meta = bet_mod.load_bet(args.bet)
    n_params = int(sum(p.data.size for p in model.params().values()))
    info = {
        "config": model.cfg.to_dict(),
        "n_params": n_params,
        "checksum": nets.params_checksum(model.params()),
        "normalizer_dim": len(normalizer.mean),
        "meta": {k: v for k, v in meta.items() if k not in ("config", "normalizer")},
    }
    print(json.dumps(info, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_run(args):
    cfg = _load_cfg(args, need_mode=True)
    out_dir = _out_dir(cfg)
    with _locked(out_dir):
        _write_config_snapshot(cfg, out_dir)
        track, _ = _ensure_track(cfg, out_dir, cfg.track_spec, "track.json")
        demos, _ = _ensure_demos(cfg, out_dir, track, "demos.ckpt", cfg.demo_laps)
        bet_path = None
        if cfg.needs_bet():
            bet_path = os.path.join(out_dir, "bet.ckpt")
            if not os.path.exists(bet_path):
                bet_path = _pretrain_bet(cfg, out_dir)
        return _run_training(cfg, out_dir, track, demos, bet_path=bet_path)


_COMMANDS = {
    "gen-track": cmd_gen_track,
    "gen-demos": cmd_gen_demos,
    "pretrain-bet": cmd_pretrain_bet,
    "train": cmd_train,
    "eval": cmd_eval,
    "report": cmd_report,
    "bet-info": cmd_bet_info,
    "run": cmd_run,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_RUNTIME
    except (FileNotFoundError, RuntimeError, nets.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # unexpected failures keep their traceback
        traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
