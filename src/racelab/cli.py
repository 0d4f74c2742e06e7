"""Command-line orchestration of the racing imitation pipeline.

A run is a chain of stages: the target course (``gen-track``), its
demonstration laps (``gen-demos``), the sequence base fitted on the
pretraining courses (``pretrain-bet``), and one fine-tuning mode
(``train``). Each of these commands runs the chain up to its own stage and
builds a product only when it is missing. ``run`` is ``train`` with the
mode taken from the config. ``eval`` and ``report`` regenerate evaluation
artifacts from a checkpoint bundle, and ``bet-info`` prints a base
checkpoint's metadata.

Every subcommand accepts ``--config`` (a JSON document; the single source
of truth for a run), ``--seed`` and ``--out``. Exit codes: 0 success, 1
configuration error, 2 runtime failure.

Layouts. By default, outputs go under the RACELAB_OUT root (``./runs``
when unset), in an experiment directory and one run directory per mode:

  <root>/s<seed>-<stage8>/                 track.json, demos.ckpt, pretrain/,
                                           bet.ckpt, bet_pretrain.json
  <root>/s<seed>-<stage8>/<mode>-<run8>/   config.json, bundle/, summary.json,
                                           eval_cars.csv, training_curve.csv

<stage8> starts the stage key, the hash of the config without mode,
alpha, train and bc, which no stage product reads. So every mode trained
on one course shares its demonstrations and its sequence base. <run8>
starts the run key, the hash of the config without its stopping rules
(train.iterations and train.eval_every). ``--out DIR`` writes all of it
flat into DIR instead.

Reuse and resume. Each stage product records the stage key it was built
under, and is reused only while every product in the experiment directory
records the current one. A run's bundle records the whole config the run
was trained under, and is resumed only by a config that differs from it
at most in the stopping rules and ``--out``: a longer iteration budget
resumes the same run directory in either layout, and a budget below the
bundle's iteration is refused. Any mismatch exits 2
before anything is written, naming the file, the first differing key and
both values. The experiment directory's ``.lock`` is held while stages
are built, and the run directory's while training.

``eval --bundle`` and ``report`` take the run's config from its bundle,
not from ``--config`` or ``--seed``, and stamp summary.json as the run's
own: report's equals it byte for byte, and so does eval's at the default
cars, steps and tag. Without ``--out`` they write eval/ and report/
beside the bundle; ``eval --bet`` writes eval-bet/ beside its checkpoint.

Stage by stage, with smoke.json holding
``{"profile": "smoke", "challenge": "maggiore-like"}``:

  racelab gen-track    --config smoke.json
  racelab gen-demos    --config smoke.json
  racelab pretrain-bet --config smoke.json
  racelab train        --config smoke.json --mode betail
  racelab train        --config smoke.json --mode betsac

The betail run's summary.json, bet.ckpt and bundle/residual.ckpt equal
those of one ``run`` of the config with ``"mode": "betail"``, and the
betsac run reuses the same bet.ckpt. gen-track's course flags override
the config's course, so they change the stage key as well.
"""

import argparse
import contextlib
import dataclasses
import glob
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
from .evaluate import EvalReport, emit_report
from .expert import DemoSet, generate_demos
from .policies import MODE_SPECS, TRAIN_MODES, build_policy_stack, train_bc
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
    parser = _Parser(prog="racelab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
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

    sp = add("train", "fine-tune a policy stack, building any missing stage first (resumable)")
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

    add("run", "train the config's mode, building any missing stage first (resumable)")
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing

def _load_cfg(args, need_mode):
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
    for key in ("seed", "out", "mode", "alpha"):
        if getattr(args, key, None) is not None:
            doc[key] = getattr(args, key)
    if getattr(args, "preset", None):
        doc["track"] = {"preset": args.preset}
    if getattr(args, "track_seed", None) is not None:
        doc.setdefault("track", {})["seed"] = args.track_seed
    if getattr(args, "half_width", None) is not None:
        doc.setdefault("track", {})["half_width"] = args.half_width
    if getattr(args, "laps", None) is not None:
        doc.setdefault("demos", {})["laps"] = args.laps
    if getattr(args, "track", None) is not None:  # eval --bet's course file
        doc["track"] = {"path": args.track}
    if not need_mode and "mode" not in doc:
        # Course and demo generation do not depend on the mode; any
        # non-residual placeholder keeps the schema satisfied.
        doc["mode"] = "ail"
    return build_config(doc)


def _dirs(cfg):
    """(experiment directory, run directory); --out makes them one."""
    if cfg.out:
        return cfg.out, cfg.out
    exp_dir = os.path.join(os.environ.get("RACELAB_OUT", "runs"),
                           f"s{cfg.seed}-{cfg.stage_hash[:8]}")
    return exp_dir, os.path.join(exp_dir, f"{cfg.mode}-{cfg.run_hash[:8]}")


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
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)


def _trace(cfg, stage=False):
    """Provenance of an output: stage products record the stage key."""
    return {"config_hash": cfg.stage_hash if stage else cfg.hash,
            "content_version": CONTENT_VERSION, "seed": cfg.seed}


def _track_from_spec(spec):
    """The course a track spec names: a file, or a preset whose other keys
    go to gen_track, which owns their defaults."""
    spec = dict(spec)
    if "path" in spec:
        return load_track(spec["path"])
    preset = spec.pop("preset", None)
    if preset is None:
        raise ConfigError("track spec needs a 'preset' (circle/oval/random) or a 'path'")
    return gen_track(preset, **spec)


def _require(path, what, hint):
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing {what}: {path} ({hint})")


def _write_config_snapshot(cfg, out_dir):
    path = os.path.join(out_dir, "config.json")
    snapshot = {"resolved": cfg.resolved, **_trace(cfg)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _check_stage_keys(cfg, exp_dir):
    """Refuse an experiment directory holding a stage product of another stage key."""
    names = ["track.json", "demos.ckpt", "bet.ckpt"]
    for path in ([os.path.join(exp_dir, name) for name in names]
                 + sorted(glob.glob(os.path.join(exp_dir, "pretrain", "*")))):
        if os.path.exists(path):
            meta = load_track(path).meta if path.endswith(".json") else nets.load_meta(path)
            if meta.get("config_hash") != cfg.stage_hash:
                raise RuntimeError(f"{path} was built under stage key {meta.get('config_hash')}, "
                                   f"not {cfg.stage_hash} (use another --out, or remove it)")


def _run_record(bundle):
    """The manifest of a bundle and the config its run was trained under."""
    if not ail.has_bundle(bundle):
        raise FileNotFoundError(f"missing bundle manifest: {bundle}/manifest.json "
                                "(point --bundle at a checkpoint bundle directory)")
    manifest = ail.read_manifest(bundle)
    if "resolved" not in manifest:
        raise nets.CheckpointError(f"{bundle}/manifest.json records no config "
                                   "(an older bundle; train the run again)")
    return manifest, build_config(manifest["resolved"])


def _check_bundle(cfg, run_dir):
    """Refuse to resume a bundle that a run of another config wrote, or one
    that has trained past the config's iteration budget."""
    bundle = os.path.join(run_dir, "bundle")
    if not ail.has_bundle(bundle):
        return
    manifest = _run_record(bundle)[0]
    mismatch = cfg.run_difference(manifest["resolved"])
    if mismatch:
        key, recorded, value = mismatch
        raise RuntimeError(f"{bundle}/manifest.json records {key} {recorded!r}, "
                           f"not {value!r} (use another --out, or remove the bundle)")
    if manifest["iteration"] > cfg.train.iterations:
        raise RuntimeError(f"{bundle}/manifest.json records iteration {manifest['iteration']}, "
                           f"beyond train.iterations {cfg.train.iterations} "
                           "(a shorter budget cannot resume it; use another --out)")


def _bundle_meta(manifest):
    """The summary fields that a bundle's counters fix, as training stamps them."""
    return {"mode": manifest["mode"], "alpha": manifest["alpha"],
            "env_steps": manifest["env_steps"], "iterations": manifest["iteration"]}


def _ensure(cfg, path, load, save, build):
    """The stage product at path: loaded when present, else built and saved."""
    if os.path.exists(path):
        print(f"reusing {path}")
        return load(path)
    product = build()
    product.meta.update(_trace(cfg, stage=True))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save(product, path)
    return product


def _ensure_course(cfg, exp_dir, track_file, demos_file, spec, laps):
    """A course and, unless demos_file is None, its demonstrations."""
    track = _ensure(cfg, os.path.join(exp_dir, track_file), load_track, save_track,
                    lambda: _track_from_spec(spec))
    if demos_file is None:
        return track, None
    return track, _ensure(
        cfg, os.path.join(exp_dir, demos_file), DemoSet.load, DemoSet.save,
        lambda: generate_demos(track, cfg.vehicle, cfg.episode, cfg.expert, laps, cfg.demo_seed))


def _ensure_base(cfg, exp_dir):
    """Fit the sequence base on the pretraining course(s) unless it exists; returns its path."""
    bet_path = os.path.join(exp_dir, "bet.ckpt")
    if os.path.exists(bet_path):
        print(f"reusing {bet_path}")
        return bet_path
    demosets = [_ensure_course(cfg, exp_dir, os.path.join("pretrain", f"track_{i}.json"),
                               os.path.join("pretrain", f"demos_{i}.ckpt"), spec,
                               cfg.demo_laps_pretrain)[1]
                for i, spec in enumerate(cfg.pretrain_track_specs)]
    merged = demosets[0] if len(demosets) == 1 else DemoSet.merge(demosets)
    model = bet_mod.BeT(cfg.bet, stream(cfg.seed, "init", 3))

    def progress(update, loss, ema):
        print(f"  base pretrain update {update}: loss {loss:.5f} (ema {ema:.5f})", flush=True)

    history = bet_mod.pretrain(model, merged, cfg.seed, progress=progress)
    trace = _trace(cfg, stage=True)
    bet_mod.save_bet(bet_path, model, merged.normalizer,
                     extra={**trace, "updates_run": len(history), "final_loss": history[-1]})
    with open(os.path.join(exp_dir, "bet_pretrain.json"), "w", encoding="utf-8") as fh:
        json.dump({"loss_history": history, **trace}, fh, sort_keys=True)
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


def _emit(cfg, out_dir, report, curve, extra_meta=None):
    meta = {**_trace(cfg), **(extra_meta or {})}
    paths = emit_report(report, curve, out_dir, meta=meta)
    print(f"report: success {report.success_rate:.2f}, "
          f"lap {report.lap_time_mean if report.lap_time_mean is not None else 'unfinished'}, "
          f"steering change {report.steering_change_mean:.4f} rad -> {paths[2]}")


def _run_training(cfg, exp_dir, run_dir, track, demos, bet_path):
    """Train the configured mode in run_dir, resuming its bundle, and report."""
    bundle_dir = os.path.join(run_dir, "bundle")
    if ail.has_bundle(bundle_dir):
        trainer, _ = ail.load_bundle(bundle_dir, track, cfg.vehicle, cfg.episode, demos, cfg.train)
        print(f"resuming from {bundle_dir} at iteration {trainer.iteration_count}")
    else:
        spec = MODE_SPECS[cfg.mode]
        bet, bet_normalizer, _ = bet_mod.load_bet(bet_path) if spec["base"] == "bet" else [None] * 3
        bc = _train_bc_base(cfg, demos, run_dir) if spec["base"] == "bc" else None
        stack = build_policy_stack(cfg.mode, demos.normalizer, demos.obs_dim,
                                   stream(cfg.seed, "init", 0), alpha=cfg.alpha, bet=bet,
                                   bc=bc, hidden=cfg.train.policy_hidden,
                                   bet_normalizer=bet_normalizer)
        if stack.residual is None:
            # Supervised-only mode: evaluate once, report.
            report = eval_mod.evaluate(stack, track, cfg.vehicle, cfg.episode, demos,
                                       n_cars=cfg.train.eval_cars,
                                       max_steps=cfg.train.eval_max_steps,
                                       seed=cfg.seed, tag=0)
            curve = [{"iteration": 0, "env_steps": 0, "success_rate": report.success_rate,
                      "lap_time_mean": report.lap_time_mean,
                      "steering_change_mean": report.steering_change_mean}]
            _emit(cfg, run_dir, report, curve, {"mode": cfg.mode})
            return
        trainer = ail.Trainer(stack, track, cfg.vehicle, cfg.episode, demos, cfg.train, cfg.seed)

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

    # The course and demo files, relative to the bundle, for `eval --bundle`.
    files = {key: os.path.relpath(os.path.join(exp_dir, name), bundle_dir)
             for key, name in (("track", "track.json"), ("demos", "demos.ckpt"))}
    summary = trainer.run(out_dir=run_dir, on_metrics=on_metrics,
                          extra_manifest={"resolved": cfg.resolved, **files})
    report = EvalReport.from_dict(summary["final_eval"])
    _emit(cfg, run_dir, report, summary["curve"],
          {key: summary[key] for key in ("mode", "alpha", "env_steps", "iterations")})


# ---------------------------------------------------------------------------
# Subcommands

# The last stage each pipeline command builds.
_STAGE = {"gen-track": "track", "gen-demos": "demos", "pretrain-bet": "bet",
          "train": "train", "run": "train"}


def cmd_pipeline(args):
    """Build the stages up to the command's own, each only when it is missing.

    Every stage product in the experiment directory, and the run's bundle,
    is checked before anything is written.
    """
    stage = _STAGE[args.command]
    cfg = _load_cfg(args, need_mode=stage == "train")
    exp_dir, run_dir = _dirs(cfg)
    bet_path = getattr(args, "bet", None)
    if bet_path is not None:
        _require(bet_path, "sequence-base checkpoint", "check --bet")
    with _locked(exp_dir):
        _check_stage_keys(cfg, exp_dir)
        if stage == "train":
            _check_bundle(cfg, run_dir)
        track, demos = _ensure_course(cfg, exp_dir, "track.json",
                                      None if stage == "track" else "demos.ckpt",
                                      cfg.track_spec, cfg.demo_laps)
        if stage == "bet" or (stage == "train" and cfg.needs_bet() and bet_path is None):
            bet_path = _ensure_base(cfg, exp_dir)
    if stage == "track":
        print(f"track {eval_mod.track_id(track)}: length {track.length:.1f} m, "
              f"half width {track.half_width:.1f} m -> {os.path.join(exp_dir, 'track.json')}")
    elif stage == "demos":
        times = demos.lap_times(cfg.episode.dt)
        print(f"{len(times)} demonstration laps, {np.mean(times):.1f} s mean lap -> "
              f"{os.path.join(exp_dir, 'demos.ckpt')}")
    elif stage == "train":
        with _locked(run_dir):
            _write_config_snapshot(cfg, run_dir)
            _run_training(cfg, exp_dir, run_dir, track, demos, bet_path)
    return EXIT_OK


def cmd_eval(args):
    if args.bundle is not None:
        manifest, cfg = _run_record(args.bundle)
        stack = ail.load_stack(args.bundle, manifest)
        # A bundle records its course and demo files relative to itself.
        track_path = args.track or os.path.join(args.bundle, manifest["track"])
        demos_path = args.demos or os.path.join(args.bundle, manifest["demos"])
        tag, curve, meta = manifest["iteration"], manifest["curve"], _bundle_meta(manifest)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(args.bundle)), "eval")
    elif args.bet is not None:
        if args.track is None or args.demos is None:
            raise ConfigError("eval --bet needs --track and --demos")
        cfg = _load_cfg(args, need_mode=False)
        _require(args.bet, "sequence-base checkpoint", "pass --bet")
        track_path, demos_path = args.track, args.demos
        tag, curve, meta = 0, [], {"mode": "bet", "alpha": None}
        out_dir = os.path.join(os.path.dirname(os.path.abspath(args.bet)), "eval-bet")
    else:
        raise ConfigError("eval needs --bundle or --bet")
    _require(track_path, "course file", "pass --track")
    _require(demos_path, "demonstration file", "pass --demos")
    track, demos = load_track(track_path), DemoSet.load(demos_path)
    if args.bundle is None:
        model, bet_norm, _ = bet_mod.load_bet(args.bet)
        stack = build_policy_stack("bet", demos.normalizer, demos.obs_dim, None, bet=model,
                                   bet_normalizer=bet_norm)
    report = eval_mod.evaluate(stack, track, cfg.vehicle, cfg.episode, demos,
                               n_cars=cfg.train.eval_cars if args.cars is None else args.cars,
                               max_steps=(cfg.train.eval_max_steps if args.max_steps is None
                                          else args.max_steps),
                               seed=cfg.seed, tag=tag if args.tag is None else args.tag)
    _emit(cfg, args.out or out_dir, report, curve, meta)
    return EXIT_OK


def cmd_report(args):
    if args.bundle is None:
        raise ConfigError("report needs --bundle")
    manifest, cfg = _run_record(args.bundle)
    out_dir = args.out or os.path.join(os.path.dirname(os.path.abspath(args.bundle)), "report")
    _emit(cfg, out_dir, EvalReport.from_dict(manifest["last_eval"]), manifest["curve"],
          _bundle_meta(manifest))
    return EXIT_OK


def cmd_bet_info(args):
    if args.bet is None:
        raise ConfigError("bet-info needs --bet")
    _require(args.bet, "sequence-base checkpoint", "pass --bet <path>")
    model, normalizer, meta = bet_mod.load_bet(args.bet)
    n_params = int(sum(p.data.size for p in model.params().values()))
    info = {
        "config": dataclasses.asdict(model.cfg),
        "n_params": n_params,
        "checksum": nets.params_checksum(model.params()),
        "normalizer_dim": len(normalizer.mean),
        "meta": {k: v for k, v in meta.items() if k not in ("config", "normalizer")},
    }
    print(json.dumps(info, sort_keys=True, indent=1))
    return EXIT_OK


_COMMANDS = {
    **{name: cmd_pipeline for name in _STAGE},
    "eval": cmd_eval,
    "report": cmd_report,
    "bet-info": cmd_bet_info,
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
