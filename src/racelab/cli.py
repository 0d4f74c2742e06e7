"""Command-line orchestration of the racing imitation pipeline.

A run is a chain of stages: the target course (``gen-track``), its
demonstration laps (``gen-demos``), the sequence base fitted on the
pretraining courses (``pretrain-bet``), and one fine-tuning mode
(``train``). Each of these commands runs the chain up to its own stage and
builds a product only when it is missing. ``run`` is ``train`` with the
mode taken from the config. The supervised-only modes ``bet`` (the
sequence base alone) and ``bc`` train no correction head: they evaluate
their base once on the target course and report. ``eval`` and ``report``
regenerate evaluation artifacts from a checkpoint bundle, and
``bet-info`` prints a base checkpoint's metadata.

The two bases learn from different demonstrations. The cloned base of
``bc`` and ``bcail`` is fitted on the target course's ``demos.ckpt``;
the sequence base on the demonstrations of the pretraining courses. On a
transfer challenge (``dragontail-like``, ``panorama-like``) only the
cloned base has seen the course it is scored on. On ``maggiore-like``,
whose pretraining course is its target, the two demonstration files are
byte-identical while ``demos.laps_pretrain`` equals ``demos.laps``.

The pipeline commands accept ``--config`` (a JSON document; the single
source of truth for a run), ``--seed`` and ``--out``; ``eval`` and
``report`` take the config from the bundle and accept ``--out``. Exit
codes: 0 success, 1 configuration error, 2 runtime failure.

Layouts. By default, outputs go under the RACELAB_OUT root (``./runs``
when unset), in an experiment directory and one run directory per mode:

  <root>/s<seed>-<stage8>/                 track.json, demos.ckpt, pretrain/,
                                           bet.ckpt, bet_pretrain.json
  <root>/s<seed>-<stage8>/<mode>-<run8>/   config.json, bundle/, summary.json,
                                           eval_cars.csv, training_curve.csv

<stage8> starts the stage key, the hash of the config without mode,
alpha, train and bc, which no stage product reads. So every mode trained
on one course shares its demonstrations and its sequence base. <run8>
starts the run key, the hash of the config fields that the mode reads,
without its stopping rules (train.iterations and train.eval_every). Every
mode reads every field, except that only a mode with a bc base reads the
bc table, only a mode with both a base and a correction head reads
alpha, and a supervised-only mode reads only eval_cars and
eval_max_steps of train. ``--out DIR`` writes all of it flat into DIR
instead.

Reuse and resume. Each stage product records the stage key it was built
under, and is reused only while every product in the experiment directory
records the current one. A run directory's config.json records the whole
config its run was started under, and its bundle the config it was trained
under. For every mode, each record that exists must differ from the config
at most in the fields the mode does not read, the stopping rules and
``--out``: a longer iteration budget resumes the same run directory in
either layout, and a budget below the bundle's iteration is refused. A
finished run of any mode, one whose summary.json records the iteration the
run ends at (0 for a supervised-only mode, train.iterations otherwise), is
reused as it stands: nothing is loaded, computed or written again. A
trained run's summary.json is stamped from its final bundle's record, as
``report`` stamps it, so a run stopped after its last bundle finishes
from that bundle's manifest, without loading the bundle or evaluating
again. Any mismatch exits 2 before anything is written, naming the file,
the first differing key and both values. The experiment
directory's ``.lock`` is held while stages are built, and the run
directory's while training. Each is a kernel lock (``flock``), which the
kernel releases when the process ends, however it ends, so the CLI runs on
POSIX systems only. Stage products and checkpoint files are written to a
temporary name and then renamed into place, so a run killed while writing
leaves the old file or none, and a write stopped by an exception removes
its temporary file.

``eval --bundle`` and ``report`` take the run's config from its bundle;
eval reads the course and demo files that the bundle's manifest names,
relative to the bundle. Both stamp summary.json as the run's own:
report's equals it byte for byte, and so does eval's at the default
cars, steps and tag. Without ``--out`` they write eval/ and report/
beside the bundle.

Stage by stage, with smoke.json holding
``{"profile": "smoke", "challenge": "maggiore-like"}``:

  racelab gen-track    --config smoke.json
  racelab gen-demos    --config smoke.json
  racelab pretrain-bet --config smoke.json
  racelab train        --config smoke.json --mode betail
  racelab train        --config smoke.json --mode betail --alpha 0.1
  racelab train        --config smoke.json --mode bet

The first betail run's summary.json, bet.ckpt and bundle/residual.ckpt
equal those of one ``run`` of the config with ``"mode": "betail"``, and
the run at alpha 0.1 and the bet run reuse the same bet.ckpt.
"""

import argparse
import contextlib
import dataclasses
import fcntl
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
from .config import _AT_LEAST, CONTENT_VERSION, ConfigError, build_config
from .evaluate import EvalReport, emit_report
from .expert import DemoSet, generate_demos
from .policies import MODE_SPECS, build_policy_stack, save_bc, train_bc
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

    def add(name, help_text, config=True):
        """A subcommand with --out; one that reads a config adds --config and --seed."""
        sp = sub.add_parser(name, help=help_text, description=help_text)
        if config:
            sp.add_argument("--config", help="JSON config file")
            sp.add_argument("--seed", type=int, default=None, help="override the run seed")
        sp.add_argument("--out", default=None, help="output directory")
        return sp

    add("gen-track", "generate the target course file")
    add("gen-demos", "record scripted demonstration laps on the target course")

    add("pretrain-bet", "fit the sequence base on the pretraining course demos")

    sp = add("train", "fine-tune a policy stack, or evaluate a supervised-only one, "
             "building any missing stage first (resumable)")
    sp.add_argument("--mode", choices=list(MODE_SPECS), default=None)
    sp.add_argument("--alpha", type=float, default=None)

    sp = add("eval", "evaluate a checkpoint bundle with the lap protocol", config=False)
    sp.add_argument("--bundle", default=None, help="checkpoint bundle directory")
    sp.add_argument("--cars", type=int, default=None)
    sp.add_argument("--max-steps", type=int, default=None)
    sp.add_argument("--tag", type=int, default=None, help="evaluation stream tag")

    sp = add("report", "re-emit report files from a bundle without recomputation", config=False)
    sp.add_argument("--bundle", default=None, help="checkpoint bundle directory")

    help_text = "print a sequence-base checkpoint's metadata"
    sp = sub.add_parser("bet-info", help=help_text, description=help_text)
    sp.add_argument("--bet", default=None, help="checkpoint path")

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
    if not need_mode and "mode" not in doc:
        # Course and demo generation do not depend on the mode; any
        # placeholder keeps the schema satisfied, and "ail" needs no alpha.
        doc["mode"] = "ail"
    return build_config(doc)


def _dirs(cfg):
    """(experiment directory, run directory); --out makes them one."""
    if cfg.out:
        return cfg.out, cfg.out
    exp_dir = os.path.join(os.environ.get("RACELAB_OUT", "runs"),
                           f"s{cfg.seed}-{cfg.stage_hash[:8]}")
    return exp_dir, os.path.join(exp_dir, f"{cfg.mode}-{cfg.run_hash[:8]}")


@contextlib.contextmanager
def _locked(out_dir):
    """Hold ``out_dir/.lock``, a kernel lock (``flock``) on a file that
    records this process's pid.

    The kernel releases the lock when the process ends, however it ends, so
    a killed run leaves nothing to reclaim. A lock held by another process
    refuses the run, naming that process's pid. The holder removes the file
    before it lets go, so a run that opened the old file refuses too.
    """
    os.makedirs(out_dir, exist_ok=True)
    lock = os.path.join(out_dir, ".lock")
    with open(lock, "a+", encoding="utf-8") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.seek(0)
            pid = fh.read().strip()
            owner = f"the run with pid {pid}" if pid else "another run"
            raise RuntimeError(f"output directory {out_dir} is locked by {owner}") from None
        try:
            held = os.path.samestat(os.fstat(fh.fileno()), os.stat(lock))
        except FileNotFoundError:
            held = False
        if not held:
            raise RuntimeError(f"output directory {out_dir} was claimed by another run")
        fh.truncate(0)
        print(os.getpid(), file=fh, flush=True)
        try:
            yield
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(lock)


def _trace(cfg, stage=False):
    """Provenance of an output: stage products record the stage key."""
    return {"config_hash": cfg.stage_hash if stage else cfg.hash,
            "content_version": CONTENT_VERSION, "seed": cfg.seed}


def _require(path, what, hint):
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing {what}: {path} ({hint})")


def _write_config_snapshot(cfg, out_dir):
    """Record the run's config, by replace: each run is checked against it."""
    with nets.replacing(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump({"resolved": cfg.resolved, **_trace(cfg)}, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _check_stage_keys(cfg, exp_dir):
    """Refuse an experiment directory holding a stage product of another stage key."""
    names = ["track.json", "demos.ckpt", "bet.ckpt"]
    # Only products: a temporary file that a killed write left is not one.
    pretrain = sorted(glob.glob(os.path.join(exp_dir, "pretrain", "*.json"))
                      + glob.glob(os.path.join(exp_dir, "pretrain", "*.ckpt")))
    for path in [os.path.join(exp_dir, name) for name in names] + pretrain:
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


def _check_run(cfg, run_dir):
    """Refuse a run directory whose bundle or config.json records a run of
    another config, or whose bundle has trained past the config's iteration
    budget. A finished run, one whose summary.json records the iteration
    the run ends at (0 without a correction head, train.iterations
    otherwise), is reused as it stands; returns whether it was."""
    bundle, config, summary = (os.path.join(run_dir, name)
                               for name in ("bundle", "config.json", "summary.json"))
    if ail.has_bundle(bundle):
        manifest = _run_record(bundle)[0]
        _check_record(cfg, f"{bundle}/manifest.json", manifest["resolved"], "the bundle")
        if manifest["iteration"] > cfg.train.iterations:
            raise RuntimeError(f"{bundle}/manifest.json records iteration {manifest['iteration']}, "
                               f"beyond train.iterations {cfg.train.iterations} "
                               "(a shorter budget cannot resume it; use another --out)")
    if os.path.exists(config):
        with open(config, "r", encoding="utf-8") as fh:
            _check_record(cfg, config, json.load(fh)["resolved"], "the run")
    if not os.path.exists(summary):
        return False
    with open(summary, "r", encoding="utf-8") as fh:
        ended = json.load(fh)["iterations"]
    if ended != (cfg.train.iterations if MODE_SPECS[cfg.mode]["residual"] else 0):
        return False
    print(f"reusing {summary}")
    return True


def _check_record(cfg, record, resolved, what):
    """Refuse a record of a run of another config."""
    mismatch = cfg.run_difference(resolved)
    if mismatch:
        key, recorded, value = mismatch
        raise RuntimeError(f"{record} records {key} {recorded!r}, "
                           f"not {value!r} (use another --out, or remove {what})")


def _bundle_meta(manifest):
    """The summary fields that a bundle's counters fix."""
    return {"mode": manifest["mode"], "alpha": manifest["alpha"],
            "env_steps": manifest["env_steps"], "iterations": manifest["iteration"]}


def _report_bundle(bundle, out_dir):
    """Stamp the report files of the run that bundle records into out_dir,
    from its last evaluation and training curve, recomputing nothing."""
    manifest, cfg = _run_record(bundle)
    _emit(cfg, out_dir, EvalReport.from_dict(manifest["last_eval"]), manifest["curve"],
          _bundle_meta(manifest))


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
                    lambda: gen_track(**spec))
    if demos_file is None:
        return track, None
    return track, _ensure(
        cfg, os.path.join(exp_dir, demos_file), DemoSet.load, DemoSet.save,
        lambda: generate_demos(track, cfg.vehicle, cfg.episode, cfg.expert, laps, cfg.demo_seed))


def _ensure_base(cfg, exp_dir):
    """Fit the sequence base on the pretraining course(s) unless it exists."""
    bet_path = os.path.join(exp_dir, "bet.ckpt")
    if os.path.exists(bet_path):
        print(f"reusing {bet_path}")
        return
    merged = DemoSet.merge([
        _ensure_course(cfg, exp_dir, os.path.join("pretrain", f"track_{i}.json"),
                       os.path.join("pretrain", f"demos_{i}.ckpt"), spec, cfg.demo_laps_pretrain)[1]
        for i, spec in enumerate(cfg.pretrain_track_specs)])
    model = bet_mod.BeT(cfg.bet, stream(cfg.seed, "init", 3))

    def progress(update, loss, ema):
        print(f"  base pretrain update {update}: loss {loss:.5f} (ema {ema:.5f})", flush=True)

    history = bet_mod.pretrain(model, merged, cfg.seed, progress=progress)
    trace = _trace(cfg, stage=True)
    # bet.ckpt marks the stage as done, so it is written last.
    with open(os.path.join(exp_dir, "bet_pretrain.json"), "w", encoding="utf-8") as fh:
        json.dump({"loss_history": history, **trace}, fh, sort_keys=True)
        fh.write("\n")
    bet_mod.save_bet(bet_path, model, merged.normalizer,
                     extra={**trace, "updates_run": len(history), "final_loss": history[-1]})
    print(f"sequence base: {len(history)} updates, final loss {history[-1]:.5f} -> {bet_path}")


def _train_bc_base(cfg, demos, out_dir):
    bc_cfg = cfg.bc
    net, history = train_bc(demos, bc_cfg["hidden"], bc_cfg["updates"], bc_cfg["batch"],
                            bc_cfg["lr"], cfg.seed)
    path = os.path.join(out_dir, "bc.ckpt")
    save_bc(path, net, {"final_loss": history[-1], **_trace(cfg)})
    print(f"cloned base: {len(history)} updates, final loss {history[-1]:.5f} -> {path}")
    return net


def _emit(cfg, out_dir, report, curve, extra_meta=None):
    meta = {**_trace(cfg), **(extra_meta or {})}
    paths = emit_report(report, curve, out_dir, meta=meta)
    print(f"report: success {report.success_rate:.2f}, "
          f"lap {report.lap_time_mean if report.lap_time_mean is not None else 'unfinished'}, "
          f"steering change {report.steering_change_mean:.4f} rad -> {paths[2]}")


def _run_training(cfg, exp_dir, run_dir, track, demos):
    """Train the configured mode in run_dir, resuming its bundle, and report."""
    bundle_dir = os.path.join(run_dir, "bundle")
    if ail.has_bundle(bundle_dir):
        if ail.read_manifest(bundle_dir)["iteration"] == cfg.train.iterations:
            # Trained to its budget and stopped before its summary.
            _report_bundle(bundle_dir, run_dir)
            return
        trainer, _ = ail.load_bundle(bundle_dir, track, cfg.vehicle, cfg.episode, demos, cfg.train)
        print(f"resuming from {bundle_dir} at iteration {trainer.iteration_count}")
    else:
        spec = MODE_SPECS[cfg.mode]
        bet, bet_normalizer, _ = (bet_mod.load_bet(os.path.join(exp_dir, "bet.ckpt"))
                                  if spec["base"] == "bet" else [None] * 3)
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
            _emit(cfg, run_dir, report, [report.curve_point(0, 0)],
                  {"mode": cfg.mode, "alpha": None, "env_steps": 0, "iterations": 0})
            return
        trainer = ail.Trainer(stack, track, cfg.vehicle, cfg.episode, demos, cfg.train, cfg.seed)

    def on_metrics(m):
        line = (f"  iter {m['iteration'] + 1}/{cfg.train.iterations}"
                f" env_steps {m['env_steps']}"
                f" progress/car {m['rollout_progress']:.1f} m"
                f" D(expert) {m['disc']['d_expert']:.3f} D(agent) {m['disc']['d_agent']:.3f}")
        if "sac" in m:
            line += f" reward {m['sac']['mean_reward']:.3f}"
        if "sac_skipped" in m:
            line += (f" actor-critic skipped (replay {m['sac_skipped']['replay']}"
                     f" below batch {m['sac_skipped']['batch']})")
        if "eval_success_rate" in m:
            line += f" | eval success {m['eval_success_rate']:.2f}"
        print(line, flush=True)

    # The course and demo files, relative to the bundle, for `eval --bundle`.
    files = {key: os.path.relpath(os.path.join(exp_dir, name), bundle_dir)
             for key, name in (("track", "track.json"), ("demos", "demos.ckpt"))}
    trainer.run(run_dir, on_metrics=on_metrics, extra_manifest={"resolved": cfg.resolved, **files})
    _report_bundle(bundle_dir, run_dir)


# ---------------------------------------------------------------------------
# Subcommands

# The last stage each pipeline command builds.
_STAGE = {"gen-track": "track", "gen-demos": "demos", "pretrain-bet": "bet",
          "train": "train", "run": "train"}


def cmd_pipeline(args):
    """Build the stages up to the command's own, each only when it is missing.

    Every stage product in the experiment directory, and the run's bundle
    and config.json, are checked before anything is written.
    """
    stage = _STAGE[args.command]
    cfg = _load_cfg(args, need_mode=stage == "train")
    exp_dir, run_dir = _dirs(cfg)
    with _locked(exp_dir):
        _check_stage_keys(cfg, exp_dir)
        if stage == "train" and _check_run(cfg, run_dir):
            return EXIT_OK
        track, demos = _ensure_course(cfg, exp_dir, "track.json",
                                      None if stage == "track" else "demos.ckpt",
                                      cfg.track_spec, cfg.demo_laps)
        if stage == "bet" or (stage == "train" and cfg.needs_bet()):
            _ensure_base(cfg, exp_dir)
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
            _run_training(cfg, exp_dir, run_dir, track, demos)
    return EXIT_OK


def cmd_eval(args):
    # --cars and --max-steps stand in for train.eval_cars and train.eval_max_steps;
    # --tag seeds the evaluation stream, and a seed is >= 0.
    for flag, value, low in (("--cars", args.cars, _AT_LEAST["train.eval_cars"]),
                             ("--max-steps", args.max_steps, _AT_LEAST["train.eval_max_steps"]),
                             ("--tag", args.tag, 0)):
        if value is not None and value < low:
            raise ConfigError(f"eval {flag} must be >= {low}, got {value}")
    if args.bundle is None:
        raise ConfigError("eval needs --bundle")
    manifest, cfg = _run_record(args.bundle)
    # A bundle records its course and demo files relative to itself, as
    # os.path.relpath wrote them.
    track_path, demos_path = (os.path.normpath(os.path.join(args.bundle, manifest[key]))
                              for key in ("track", "demos"))
    hint = f"named by {args.bundle}/manifest.json"
    _require(track_path, "course file", hint)
    _require(demos_path, "demonstration file", hint)
    track, demos = load_track(track_path), DemoSet.load(demos_path)
    stack = ail.load_stack(args.bundle, manifest)
    report = eval_mod.evaluate(stack, track, cfg.vehicle, cfg.episode, demos,
                               n_cars=cfg.train.eval_cars if args.cars is None else args.cars,
                               max_steps=(cfg.train.eval_max_steps if args.max_steps is None
                                          else args.max_steps),
                               seed=cfg.seed,
                               tag=manifest["iteration"] if args.tag is None else args.tag)
    out_dir = args.out or os.path.join(os.path.dirname(os.path.abspath(args.bundle)), "eval")
    _emit(cfg, out_dir, report, manifest["curve"], _bundle_meta(manifest))
    return EXIT_OK


def cmd_report(args):
    if args.bundle is None:
        raise ConfigError("report needs --bundle")
    _report_bundle(args.bundle,
                   args.out or os.path.join(os.path.dirname(os.path.abspath(args.bundle)), "report"))
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
