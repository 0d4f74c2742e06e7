"""Command-line orchestration of the racing imitation pipeline.

A run is a chain of stages: the target course (``gen-track``), its
demonstration laps (``gen-demos``), the sequence base fitted on the
pretraining courses' demonstrations (``pretrain-bet``), and one
fine-tuning mode (``train``). Each of these commands builds the stage
products it reads, each only when it is missing; ``pretrain-bet`` builds
only what the base reads. ``run`` is ``train`` with the mode taken from
the config. The supervised-only modes ``bet`` (the sequence base alone)
and ``bc`` train no correction head: they evaluate their base once on
the target course and report. ``eval`` and ``report``
regenerate evaluation artifacts from a checkpoint bundle.

Both bases learn from the same data. The sequence base (``bet.ckpt``)
and the cloned base of ``bc`` and ``bcail`` (``bc.ckpt``) are stage
products, each fitted on the demonstrations of the pretraining courses
and stored with their whitener, which the base reads its observations
through. So on a transfer challenge (``dragontail-like``,
``panorama-like``) neither base has seen the course it is scored on, and
the arms differ only in their models. The correction head and the
discriminator read the target course's demonstrations and whitener.

The pipeline commands accept ``--config`` (a JSON document; the single
source of truth for a run), ``--seed`` and ``--out``; ``eval`` and
``report`` take the config from the bundle and accept ``--out``. Exit
codes: 0 success, 1 configuration error, 2 runtime failure.

Keys and layouts. Each stage product is keyed by the config fields it
is built from: a course by its spec; its demonstrations by the course,
their lap count, demos.seed, vehicle, episode and expert; a base by the
keys of the pretraining demonstrations, the seed and its own table (bet
or bc). By default, outputs go under the RACELAB_OUT root (``./runs``
when unset), each stage product in a directory named by its key, and
each run in one named by its run key:

  <root>/stages/<key8>/      track.json, demos.ckpt, bc.ckpt, or
                             bet.ckpt and bet_pretrain.json
  <root>/<mode>-<run8>/      config.json, bundle/, summary.json,
                             eval_cars.csv, training_curve.csv

So a product is built once in a root, whichever run or challenge needs
it: challenges that share pretraining courses share one base, and every
mode shares the course and demonstrations it is scored on. <run8> starts
the run key, the hash of the config fields that the mode reads, without
its stopping rules (train.iterations and train.eval_every). A run reads
the target course and its demonstrations; only a mode with a base reads
pretrain_tracks, demos.laps_pretrain and that base's table (bet or bc);
only a mode with both a base and a correction head reads alpha; and a
supervised-only mode reads only eval_cars and eval_max_steps of train.
``--out DIR`` writes it all into DIR instead: the target's products and
the base under their names at its top, a pretraining course that is not
the target under pretrain/<i>/, and the run's files beside them.

Reuse and resume. Each stage product records the key it was built
under, its stage key, and the content version. A command lists the
products it reads, each once: a key already listed is the path listed
first, so a pretraining course that is the target course is the target's
files. Every listed product that exists is checked against its key and
this version's ``CONTENT_VERSION`` before anything is written, and is
then reused. A run directory's config.json records the whole config
its run was started under, and its bundle the config it was trained
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
again. Any mismatch exits 2 before anything is written, naming the file
and both keys, or the first differing field and both values.

Locks. A training command takes its run directory's ``.lock`` first,
before it checks anything, and holds it through training. The ``.lock``
of every other directory that holds a listed product is then held while
the products are checked and built. Only the holder of a run directory's
lock puts back a bundle that a stopped save left at ``bundle.old``;
``eval`` and ``report`` take no lock and rename nothing. A directory made
to hold a lock is removed on release if it is empty, so a refused
command leaves the output tree as it found it. Each lock is a kernel
lock (``flock``), which the kernel releases when the process ends,
however it ends, so the CLI runs on POSIX systems only. Stage
products and checkpoint files are written to a temporary name and then
renamed into place, so a run killed while writing leaves the old file or
none, and a write stopped by an exception removes its temporary file.

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
the run at alpha 0.1 and the bet run reuse the same bet.ckpt. So does a
``pretrain-bet`` of the config with ``"challenge": "dragontail-like"``,
whose pretraining course is maggiore-like's.
"""

import argparse
import contextlib
import fcntl
import json
import os
import pathlib
import sys
import traceback

import numpy as np

from . import ail
from . import bet as bet_mod
from . import evaluate as eval_mod
from . import nets
from .config import _AT_LEAST, CONTENT_VERSION, ConfigError, build_config, config_hash
from .evaluate import EvalReport, emit_report
from .expert import DemoSet, generate_demos
from .policies import BASES, MODE_SPECS, build_policy_stack, load_base, save_base, train_bc
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


@contextlib.contextmanager
def _locked(*out_dirs):
    """Hold ``.lock`` in each of out_dirs, a kernel lock (``flock``) on a
    file that records this process's pid.

    The kernel releases the lock when the process ends, however it ends, so
    a killed run leaves nothing to reclaim. A lock held by another process
    refuses the run, naming that process's pid. The holder removes the file
    before it lets go, so a run that opened the old file refuses too. A
    directory made to hold a lock is removed on release if it is then
    empty, so a refused command leaves the output tree as it found it.
    """
    with contextlib.ExitStack() as held:
        for out_dir in sorted(set(out_dirs)):
            made, parent = [], os.path.abspath(out_dir)
            while not os.path.isdir(parent):
                made.append(parent)
                parent = os.path.dirname(parent)
            os.makedirs(out_dir, exist_ok=True)
            for path in reversed(made):  # callbacks run last in, first out: deepest first
                held.callback(_remove_if_empty, path)
            lock = os.path.join(out_dir, ".lock")
            fh = held.enter_context(open(lock, "a+", encoding="utf-8"))
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                fh.seek(0)
                pid = fh.read().strip()
                owner = f"the run with pid {pid}" if pid else "another run"
                raise RuntimeError(f"output directory {out_dir} is locked by {owner}") from None
            try:
                ours = os.path.samestat(os.fstat(fh.fileno()), os.stat(lock))
            except FileNotFoundError:
                ours = False
            if not ours:
                raise RuntimeError(f"output directory {out_dir} was claimed by another run")
            fh.truncate(0)
            print(os.getpid(), file=fh, flush=True)
            held.callback(pathlib.Path(lock).unlink, missing_ok=True)
        yield


def _remove_if_empty(path):
    with contextlib.suppress(OSError):
        os.rmdir(path)


def _trace(key, seed):
    """Provenance of a run's output or of a base: the key it was built under
    (a run's is its config hash) and the seed."""
    return {"config_hash": key, "content_version": CONTENT_VERSION, "seed": seed}


def _require(path, what, hint):
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing {what}: {path} ({hint})")


def _write_config_snapshot(cfg, out_dir):
    """Record the run's config, by replace: each run is checked against it."""
    with nets.replacing(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump({"resolved": cfg.resolved, **_trace(cfg.hash, cfg.seed)}, fh,
                  sort_keys=True, indent=1)
        fh.write("\n")


# How each kind of stage product is read, by file name; a base as (net,
# whitener, meta).
_LOAD = {"track.json": load_track, "demos.ckpt": DemoSet.load,
         **{base["file"]: lambda path, kind=kind: load_base(path, kind)
            for kind, base in BASES.items()}}


def _plan(cfg, stage, root):
    """The stage products a command reads, in build order: the target course
    and its demonstrations, as far as the stage goes, then the pretraining
    courses and their demonstrations and the base, for pretrain-bet and
    for a mode with a base.

    A product is (path, key, build): build(path, key, got) makes it from
    the products before it, which got maps by path, and writes it to path,
    from where it is read by its file name (_LOAD). ``--out`` places it at
    its name in DIR, the default layout at root/stages/<key8>/. A
    key placed before keeps its first path, whether or not the command
    reads it: a pretraining course that is the target course is the
    target's files.
    """
    paths, plan = {}, []

    def add(name, key, build):
        if key not in paths:
            paths[key] = os.path.join(cfg.out, name) if cfg.out else os.path.join(
                root, "stages", key[:8], os.path.basename(name))
            plan.append((paths[key], key, build))
        return paths[key]

    def course(prefix, spec, laps):
        track = add(prefix + "track.json", cfg.course_key(spec),
                    lambda path, key, got: _write(path, key, gen_track(**spec), save_track))
        return [track, add(prefix + "demos.ckpt", cfg.demos_key(spec, laps),
                           lambda path, key, got: _write(path, key, generate_demos(
                               got[track], cfg.vehicle, cfg.episode, cfg.expert, laps,
                               cfg.demo_seed), DemoSet.save))]

    target = course("", cfg.track_spec, cfg.demo_laps)
    reads = target[:{"track": 1, "demos": 2, "train": 2}.get(stage, 0)]
    kind = {"bet": "bet", "train": MODE_SPECS[cfg.mode]["base"]}.get(stage)
    if kind is not None:
        pretraining = [course(f"pretrain/{i}/", spec, cfg.demo_laps_pretrain)
                       for i, spec in enumerate(cfg.pretrain_track_specs)]
        reads += sum(pretraining, []) + [add(
            BASES[kind]["file"], cfg.base_key(kind), lambda path, key, got: _fit_base(
                cfg, kind, path, key, [got[demos] for _, demos in pretraining]))]
    return [product for product in plan if product[0] in reads]


def _check_products(plan):
    """Refuse a stage product recorded under another key than its own, or
    under another content version than this one's."""
    for path, key, _ in plan:
        if os.path.exists(path):
            meta = load_track(path).meta if path.endswith(".json") else nets.load_meta(path)
            for field, what, want in (("config_hash", "stage key", key),
                                      ("content_version", "content version", CONTENT_VERSION)):
                if meta.get(field) != want:
                    raise RuntimeError(f"{path} was built under {what} {meta.get(field)}, "
                                       f"not {want} (use another --out, or remove it)")


def _obtain(plan):
    """The products of the plan, in its order, each as read from its path;
    a missing one is built first, from the products before it."""
    got = {}
    for path, key, build in plan:
        if os.path.exists(path):
            print(f"reusing {path}")
        else:
            build(path, key, got)
        got[path] = _LOAD[os.path.basename(path)](path)
    return list(got.values())


def _write(path, key, product, save):
    """Stamp a course or demonstration set with its key and write it to path."""
    product.meta.update(config_hash=key, content_version=CONTENT_VERSION)
    save(product, path)


def _fit_base(cfg, kind, path, key, demos):
    """Fit the base of a kind on the pretraining demonstrations and write it
    to path with their whitener."""
    merged = DemoSet.merge(demos)
    trace = _trace(key, cfg.seed)
    if kind == "bet":
        model = bet_mod.BeT(cfg.bet, stream(cfg.seed, "init", 3))
        history = bet_mod.pretrain(model, merged, cfg.seed, progress=lambda update, loss, ema: print(
            f"  base pretrain update {update}: loss {loss:.5f} (ema {ema:.5f})", flush=True))
        # The base checkpoint marks the stage as done, so it is written last.
        with nets.replacing(os.path.join(os.path.dirname(path), "bet_pretrain.json"), "w") as fh:
            json.dump({"loss_history": history, **trace}, fh, sort_keys=True)
            fh.write("\n")
    else:
        model, history = train_bc(merged, seed=cfg.seed, **cfg.bc)
    save_base(path, kind, model, merged.normalizer,
              {**trace, "updates_run": len(history), "final_loss": history[-1]})
    print(f"{BASES[kind]['label']} base: {len(history)} updates, "
          f"final loss {history[-1]:.5f} -> {path}")


def _run_record(bundle):
    """The manifest of a bundle, which records the config (``resolved``)
    its run was trained under."""
    if not ail.has_bundle(bundle):
        raise FileNotFoundError(f"missing bundle manifest: {bundle}/manifest.json "
                                "(point --bundle at a checkpoint bundle directory)")
    manifest = ail.read_manifest(bundle)
    if "resolved" not in manifest:
        raise nets.CheckpointError(f"{bundle}/manifest.json records no config "
                                   "(an older bundle; train the run again)")
    return manifest


def _check_run(cfg, run_dir):
    """Refuse a run directory whose bundle or config.json records a run of
    another config, or whose bundle has trained past the config's iteration
    budget. A finished run, one whose summary.json records the iteration
    the run ends at (0 without a correction head, train.iterations
    otherwise), is reused as it stands; returns whether it was.

    The caller holds the run directory's lock, so this first puts back a
    bundle that a stopped save left moved aside."""
    bundle, config, summary = (os.path.join(run_dir, name)
                               for name in ("bundle", "config.json", "summary.json"))
    ail.recover_bundle(bundle)
    if ail.has_bundle(bundle):
        manifest = _run_record(bundle)
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
    manifest = _run_record(bundle)
    _emit(manifest["resolved"], out_dir,
          EvalReport.from_dict(manifest["last_eval"]), manifest["curve"], _bundle_meta(manifest))


def _emit(resolved, out_dir, report, curve, extra_meta=None):
    """Write the report files of a run of the resolved config into out_dir."""
    meta = {**_trace(config_hash(resolved), resolved["seed"]), **(extra_meta or {})}
    paths = emit_report(report, curve, out_dir, meta=meta)
    print(f"report: success {report.success_rate:.2f}, "
          f"lap {report.lap_time_mean if report.lap_time_mean is not None else 'unfinished'}, "
          f"steering change {report.steering_change_mean:.4f} rad -> {paths[2]}")


def _run_training(cfg, run_dir, plan, products):
    """Train the configured mode in run_dir, resuming its bundle, and report.

    products are those of the plan: the target course and demonstrations
    first and, for a mode with a base, the base with its whitener last.
    """
    track, demos = products[:2]
    bundle_dir = os.path.join(run_dir, "bundle")
    resumed = ail.has_bundle(bundle_dir)
    if resumed and ail.read_manifest(bundle_dir)["iteration"] == cfg.train.iterations:
        # Trained to its budget and stopped before its summary.
        _write_config_snapshot(cfg, run_dir)
        _report_bundle(bundle_dir, run_dir)
        return
    if resumed:
        trainer, _ = ail.load_bundle(bundle_dir, track, cfg.vehicle, cfg.episode, demos, cfg.train)
        print(f"resuming from {bundle_dir} at iteration {trainer.iteration_count}")
    # Written once the bundle is loaded, so a resume that it refuses leaves
    # the run's config.json as it was.
    _write_config_snapshot(cfg, run_dir)
    if not resumed:
        # The stack keeps the net as the base of its mode's kind.
        net, whitener, _ = products[-1] if MODE_SPECS[cfg.mode]["base"] else (None,) * 3
        stack = build_policy_stack(cfg.mode, demos.normalizer, demos.obs_dim,
                                   stream(cfg.seed, "init", 0), alpha=cfg.alpha, bet=net, bc=net,
                                   hidden=cfg.train.policy_hidden, bet_normalizer=whitener)
        if stack.residual is None:
            # Supervised-only mode: evaluate once, report.
            report = eval_mod.evaluate(stack, track, cfg.vehicle, cfg.episode, demos,
                                       n_cars=cfg.train.eval_cars,
                                       max_steps=cfg.train.eval_max_steps,
                                       seed=cfg.seed, tag=0)
            _emit(cfg.resolved, run_dir, report, [report.curve_point(0, 0)],
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
    files = {key: os.path.relpath(path, bundle_dir)
             for key, (path, _, _) in zip(("track", "demos"), plan)}
    trainer.run(run_dir, on_metrics=on_metrics, extra_manifest={"resolved": cfg.resolved, **files})
    _report_bundle(bundle_dir, run_dir)


# ---------------------------------------------------------------------------
# Subcommands

# The last stage each pipeline command builds.
_STAGE = {"gen-track": "track", "gen-demos": "demos", "pretrain-bet": "bet",
          "train": "train", "run": "train"}


def cmd_pipeline(args):
    """Build the stage products the command reads, each only when it is missing.

    A training command first takes its run directory's lock, and holds it
    through training. Every stage product on the command's list, and the
    run's bundle and config.json, are checked before anything is written.
    """
    stage = _STAGE[args.command]
    cfg = _load_cfg(args, need_mode=stage == "train")
    root = os.environ.get("RACELAB_OUT", "runs")
    plan = _plan(cfg, stage, root)
    run_dir = os.path.normpath(cfg.out or os.path.join(root, f"{cfg.mode}-{cfg.run_hash[:8]}"))
    runs = [run_dir] if stage == "train" else []
    # Under --out the run directory also holds the target's products.
    stage_dirs = {os.path.normpath(os.path.dirname(path)) for path, _, _ in plan} - set(runs)
    with _locked(*runs):
        with _locked(*stage_dirs):
            _check_products(plan)
            if runs and _check_run(cfg, run_dir):
                return EXIT_OK
            products = _obtain(plan)
        if runs:
            _run_training(cfg, run_dir, plan, products)
            return EXIT_OK
    if stage == "track":
        track = products[0]
        print(f"track {eval_mod.track_id(track)}: length {track.length:.1f} m, "
              f"half width {track.half_width:.1f} m -> {plan[0][0]}")
    elif stage == "demos":
        times = products[1].lap_times(cfg.episode.dt)
        print(f"{len(times)} demonstration laps, {np.mean(times):.1f} s mean lap -> {plan[1][0]}")
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
    manifest = _run_record(args.bundle)
    cfg = build_config(manifest["resolved"])
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
    _emit(cfg.resolved, out_dir, report, manifest["curve"], _bundle_meta(manifest))
    return EXIT_OK


def cmd_report(args):
    if args.bundle is None:
        raise ConfigError("report needs --bundle")
    _report_bundle(args.bundle,
                   args.out or os.path.join(os.path.dirname(os.path.abspath(args.bundle)), "report"))
    return EXIT_OK


_COMMANDS = {
    **{name: cmd_pipeline for name in _STAGE},
    "eval": cmd_eval,
    "report": cmd_report,
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
