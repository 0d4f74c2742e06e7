"""End-to-end tests of the command line."""

import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from racelab import ail, bet, cli, nets
from racelab.config import CHALLENGES, build_config
from racelab.env import Normalizer
from racelab.evaluate import evaluate
from racelab.expert import DemoSet
from racelab.policies import build_policy_stack
from racelab.track import gen_track, load_track, save_track

# sha256 of the smoke run's outputs. The pipeline is bit-deterministic, so
# any change here is a change of numerics and is re-blessed on purpose.
GOLDEN = {
    "summary.json": "01c4311985a2d0c57cfc46a2f32cf2853e4070b059e5ab6eeeddd2ade7a5359b",
    "bet.ckpt": "81df3d76af071cd68676710c9be44996d29531759b847d44b15aa21a5cd8babf",
    "bundle/residual.ckpt": "50b0a59a9f20cd47ce79716d96254075796cfc3f12bfd209c6ce69138ff08028",
}


@pytest.mark.exact_bits
def test_smoke_run_matches_golden_fingerprint(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"profile": "smoke", "challenge": "maggiore-like",
                               "mode": "betail", "seed": 0}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    got = {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest() for rel in GOLDEN}
    assert got == GOLDEN


def test_run_with_other_feature_counts_sizes_the_base_from_the_episode(tmp_path):
    # 8 curvature samples give 48 observation features, not the default 50.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "profile": "smoke", "challenge": "maggiore-like", "mode": "betail", "seed": 0,
        "episode": {"curvature_count": 8}, "demos": {"laps": 1}, "bet": {"updates": 3},
        "train": {"iterations": 1, "rollout_steps": 30, "eval_max_steps": 30,
                  "disc_updates": 2, "sac": {"batch": 64, "gradient_steps": 2}}}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    model, normalizer, _ = bet.load_bet(str(out / "bet.ckpt"))
    assert model.cfg.obs_dim == len(normalizer.mean) == 48


# sha256 of track.json for each preset at its defaults and each challenge
# course, as the stage pipeline builds them with gen_track(**spec).
COURSE_FILES = {
    "circle": "fd83bc5cfa6d8f958b5c82bca32a3e29e3e7723938b2a2a13fd3d1530db39c08",
    "oval": "dcb3aaf6e2cf9b5d85071e0d965c1821c87747d25d852c0b62a0a430e6f4876f",
    "random": "4c14d7ceb5253c762a59608e4e3ad096f5ca66234e01af1162943045bb3911b8",
    "maggiore-like": "c035a35e8a6e01e6d7db0913f17cc5a72636f7f93616f170088bc518f909e65c",
    "dragontail-like": "d062570baaf0a4dd4a075ea577d1ce03fc3cd86556eefbfbfbe0e270a51b6e97",
    "panorama-like": "e38f8ffdf8558758caaca9968f06fde50d421432384462e7a5d9c40bef6c273b",
}


@pytest.mark.parametrize("name", sorted(COURSE_FILES))
def test_course_files_keep_their_bytes(name, tmp_path):
    spec = CHALLENGES[name]["track"] if name in CHALLENGES else {"preset": name}
    path = tmp_path / "track.json"
    save_track(gen_track(**spec), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == COURSE_FILES[name]


# The option strings of each subcommand. A new flag is a deliberate edit
# here, and so a line in the change log.
OPTIONS = {
    "gen-track": {"--config", "--seed", "--out"},
    "gen-demos": {"--config", "--seed", "--out"},
    "pretrain-bet": {"--config", "--seed", "--out"},
    "train": {"--config", "--seed", "--out", "--mode", "--alpha"},
    "run": {"--config", "--seed", "--out"},
    "eval": {"--out", "--bundle", "--cars", "--max-steps", "--tag"},
    "report": {"--out", "--bundle"},
    "bet-info": {"--bet"},
}


def test_each_command_takes_its_pinned_options():
    (sub,) = [action for action in cli._build_parser()._actions if action.choices]
    got = {name: {flag for action in parser._actions for flag in action.option_strings}
           - {"-h", "--help"} for name, parser in sub.choices.items()}
    assert got == OPTIONS
    assert sum(map(len, got.values())) == 25


def _gen_track(out):
    cfg = out.parent / "circle.json"
    cfg.write_text(json.dumps({"track": {"preset": "circle"}}))
    return cli.main(["gen-track", "--config", str(cfg), "--out", str(out)])


def test_lock_of_a_dead_process_is_reclaimed(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid is no longer alive
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text(f"{child.pid}\n")
    assert _gen_track(out) == cli.EXIT_OK
    assert (out / "track.json").exists()
    assert not (out / ".lock").exists()


# A child process that holds the lock of sys.argv[1] until it is killed.
HOLDER = """
import sys, time
from racelab import cli
with cli._locked(sys.argv[1]):
    print("held", flush=True)
    time.sleep(600)
"""


def test_lock_of_a_live_process_refuses_the_run(tmp_path, capsys):
    out = tmp_path / "run"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    holder = subprocess.Popen([sys.executable, "-c", HOLDER, str(out)], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "held\n"
        before = _tree(out)
        assert _gen_track(out) == cli.EXIT_RUNTIME
        assert f"locked by the run with pid {holder.pid}" in capsys.readouterr().err
        assert _tree(out) == before
        # The kernel releases the lock of a killed holder; its file is left.
        holder.kill()
        holder.wait(timeout=10)
        assert (out / ".lock").exists()
        assert _gen_track(out) == cli.EXIT_OK
        assert (out / "track.json").exists()
        assert not (out / ".lock").exists()
    finally:
        holder.kill()
        holder.wait(timeout=10)
        holder.stdout.close()


@pytest.mark.parametrize("content", ["", f"{os.getpid()}\n"], ids=["empty", "live-pid"])
def test_lock_file_that_no_process_holds_does_not_block(content, tmp_path):
    # Left by a run killed before it wrote its pid, or naming a live pid
    # that does not hold the lock.
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text(content)
    assert _gen_track(out) == cli.EXIT_OK
    assert (out / "track.json").exists()
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("replaced", [False, True], ids=["removed", "replaced"])
def test_lock_on_a_file_its_holder_removed_refuses_the_run(replaced, tmp_path, monkeypatch,
                                                           capsys):
    # The run opened .lock just before its holder removed it and let go.
    out = tmp_path / "run"
    flock = cli.fcntl.flock

    def flock_after_the_holder(fh, op):
        flock(fh, op)
        os.unlink(out / ".lock")
        if replaced:  # and a third run has made a new one
            (out / ".lock").write_text("")

    monkeypatch.setattr(cli.fcntl, "flock", flock_after_the_holder)
    assert _gen_track(out) == cli.EXIT_RUNTIME
    assert f"output directory {out} was claimed by another run" in capsys.readouterr().err
    assert not (out / "track.json").exists()


def _small_bet():
    return bet.BeT(bet.BeTConfig(obs_dim=6, embed_dim=8, n_layers=1, n_heads=2, context=4,
                                 eval_context=2), np.random.default_rng(3))


def test_bet_info_prints_the_parameter_checksum(tmp_path, capsys):
    model = _small_bet()
    path = tmp_path / "bet.ckpt"
    bet.save_bet(str(path), model, Normalizer.identity(6))
    assert cli.main(["bet-info", "--bet", str(path)]) == cli.EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["checksum"] == nets.params_checksum(model.params())
    assert info["n_params"] == sum(p.data.size for p in model.params().values())


def test_bet_info_on_a_stale_checkpoint_names_the_keys(tmp_path, capsys):
    # A base written before the BeTConfig trim carries two keys it lost;
    # dropping w_std shows a missing key as well.
    model = _small_bet()
    stale = {**dataclasses.asdict(model.cfg), "nonlinearity": "relu", "loss_positions": "all"}
    del stale["w_std"]
    path = tmp_path / "bet.ckpt"
    nets.save_params(str(path), model.params(), {
        "kind": "bet", "config": stale, "normalizer": Normalizer.identity(6).to_dict()})
    assert cli.main(["bet-info", "--bet", str(path)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "stale keys ['loss_positions', 'nonlinearity'], missing keys ['w_std']" in err


def test_a_base_with_separate_query_key_value_weights_is_refused(tmp_path, capsys):
    # A base written before the packed projection stores blk0.q, .k and .v.
    model = _small_bet()
    arrays = {name: p.data for name, p in model.params().items()}
    for part, cols in (("W", arrays.pop("blk0.qkv.W")), ("b", arrays.pop("blk0.qkv.b"))):
        for name, third in zip("qkv", np.split(cols, 3, axis=-1)):
            arrays[f"blk0.{name}.{part}"] = third
    path = tmp_path / "bet.ckpt"
    nets.save_params(str(path), arrays, {"kind": "bet", "config": dataclasses.asdict(model.cfg),
                                         "normalizer": Normalizer.identity(6).to_dict()})
    with pytest.raises(nets.CheckpointError, match="missing parameter blk0.qkv.W"):
        bet.load_bet(str(path))
    assert cli.main(["bet-info", "--bet", str(path)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == "error: checkpoint missing parameter blk0.qkv.W\n"


@pytest.mark.parametrize("command", ["eval", "report"])
def test_old_bundle_is_refused_without_a_traceback(tmp_path, capsys, command):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for old in ("racelab-bundle-v1", "racelab-bundle-v2", "racelab-bundle-v3",
                "racelab-bundle-v4"):
        (bundle / "manifest.json").write_text(json.dumps({"format": old}))
        assert cli.main([command, "--bundle", str(bundle)]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == \
            f"error: not a racelab-bundle-v5 checkpoint bundle: {bundle}\n"


# ---------------------------------------------------------------------------
# The stage pipeline, at a tiny smoke config

TINY = {"profile": "smoke", "challenge": "maggiore-like", "seed": 0,
        "demos": {"laps": 1}, "bet": {"updates": 3},
        "train": {"iterations": 2, "eval_every": 1, "rollout_steps": 30, "eval_max_steps": 30,
                  "disc_updates": 2, "sac": {"batch": 64, "gradient_steps": 2}}}
COMPARED = ("summary.json", "bet.ckpt", os.path.join("bundle", "residual.ckpt"))


@pytest.fixture(autouse=True)
def _outputs_in_tmp(tmp_path, monkeypatch):
    """Default output directories land in the test's own directory."""
    monkeypatch.setenv("RACELAB_OUT", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)


def _write(path, doc):
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _tree(root):
    """Relative path -> sha256 of every file under root."""
    return {os.path.relpath(os.path.join(d, f), root):
            hashlib.sha256(pathlib.Path(d, f).read_bytes()).hexdigest()
            for d, _, files in os.walk(root) for f in files}


@pytest.fixture(scope="module")
def betail_run(tmp_path_factory):
    """One uninterrupted `run` of the tiny config in mode betail, with --out."""
    root = tmp_path_factory.mktemp("betail")
    cfg = _write(root / "config.json", {**TINY, "mode": "betail"})
    assert cli.main(["run", "--config", cfg, "--out", str(root / "run")]) == cli.EXIT_OK
    return root / "run"


@pytest.fixture
def run_copy(betail_run, tmp_path):
    return shutil.copytree(betail_run, tmp_path / "X")


def test_stages_one_by_one_equal_one_run_and_share_the_base(betail_run, tmp_path,
                                                            monkeypatch, capsys):
    cfg = _write(tmp_path / "stages.json", TINY)  # names no mode
    for command in (["gen-track"], ["gen-demos"], ["pretrain-bet"],
                    ["train", "--mode", "betail"]):
        assert cli.main(command + ["--config", cfg]) == cli.EXIT_OK
    (exp,) = (tmp_path / "runs").iterdir()
    (run,) = exp.glob("betail-*")
    assert exp.name.startswith("s0-")
    for rel in COMPARED:
        base_dir = exp if rel == "bet.ckpt" else run
        assert (base_dir / rel).read_bytes() == (betail_run / rel).read_bytes(), rel

    # The bundle names its course and demo files, so eval finds them here.
    assert cli.main(["eval", "--bundle", str(run / "bundle"), "--out", "e"]) == cli.EXIT_OK
    assert json.loads((tmp_path / "e" / "summary.json").read_text())["report"] == \
        json.loads((run / "summary.json").read_text())["report"]

    # A second run in the same experiment reuses the base: alpha is not part
    # of the stage key.
    def no_pretrain(*args, **kwargs):
        raise AssertionError("the base was pretrained again")

    monkeypatch.setattr(bet, "pretrain", no_pretrain)
    stages = _tree(exp / "pretrain") | {"bet.ckpt": _tree(exp)["bet.ckpt"]}
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--mode", "betail", "--alpha", "0.1"]) == \
        cli.EXIT_OK
    assert f"reusing {exp / 'bet.ckpt'}" in capsys.readouterr().out
    assert _tree(exp / "pretrain") | {"bet.ckpt": _tree(exp)["bet.ckpt"]} == stages
    (other,) = set(exp.glob("betail-*")) - {run}
    assert json.loads((other / "summary.json").read_text())["alpha"] == 0.1


def test_interrupted_stage_write_leaves_no_product(betail_run, tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path / "config.json", TINY)
    out = tmp_path / "run"

    def interrupt(_buf):  # the first buffer of demos.ckpt, after its header
        raise KeyboardInterrupt

    monkeypatch.setattr(nets, "memoryview", interrupt, raising=False)
    assert cli.main(["gen-demos", "--config", cfg, "--out", str(out)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "interrupted\n"
    assert (out / "track.json").exists()
    assert not (out / "demos.ckpt").exists() and not (out / ".lock").exists()
    assert not (out / "demos.ckpt.tmp").exists()

    monkeypatch.delattr(nets, "memoryview")
    assert cli.main(["gen-demos", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert f"reusing {out / 'demos.ckpt'}" not in capsys.readouterr().out
    assert (out / "demos.ckpt").read_bytes() == (betail_run / "demos.ckpt").read_bytes()


def test_interrupted_run_resumes_bit_identically(betail_run, tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path / "config.json", {**TINY, "mode": "betail"})
    out = tmp_path / "run"
    iteration = ail.Trainer.iteration

    def interrupt_second(trainer, it):
        if it == 1:
            raise KeyboardInterrupt
        return iteration(trainer, it)

    monkeypatch.setattr(ail.Trainer, "iteration", interrupt_second)
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "interrupted\n"
    assert json.loads((out / "bundle" / "manifest.json").read_text())["iteration"] == 1
    assert not (out / "summary.json").exists() and not (out / ".lock").exists()

    monkeypatch.setattr(ail.Trainer, "iteration", iteration)
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert "resuming from" in capsys.readouterr().out
    for rel in ("summary.json", os.path.join("bundle", "residual.ckpt"),
                os.path.join("bundle", "replay.ckpt")):
        assert (out / rel).read_bytes() == (betail_run / rel).read_bytes(), rel


@pytest.mark.parametrize("argv, named", [
    (["train", "--mode", "ail"], ["manifest.json", "mode 'betail', not 'ail'"]),
    (["train", "--alpha", "0.1"], ["manifest.json", "alpha 0.05, not 0.1"]),
    (["run", "--seed", "5"], ["track.json", "stage key"]),
])
def test_a_run_of_another_config_leaves_the_directory_unchanged(run_copy, tmp_path, capsys,
                                                                argv, named):
    cfg = _write(tmp_path / "config.json", {**TINY, "mode": "betail"})
    before = _tree(run_copy)
    assert cli.main(argv + ["--config", cfg, "--out", str(run_copy)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(part in err for part in named)
    if argv[0] == "run":  # both stage keys
        track_key = json.loads((run_copy / "track.json").read_text())["meta"]["config_hash"]
        assert track_key in err and err.count("stage key") == 1
    assert _tree(run_copy) == before


def test_a_longer_iteration_budget_resumes_the_bundle(run_copy, tmp_path, capsys):
    longer = {**TINY, "mode": "betail", "train": {**TINY["train"], "iterations": 3}}
    cfg = _write(tmp_path / "config.json", longer)
    assert cli.main(["run", "--config", cfg, "--out", str(run_copy)]) == cli.EXIT_OK
    assert f"resuming from {run_copy / 'bundle'} at iteration 2" in capsys.readouterr().out
    assert json.loads((run_copy / "summary.json").read_text())["iterations"] == 3


def test_another_learning_rate_names_the_key_and_both_values(run_copy, tmp_path, capsys):
    doc = {**TINY, "mode": "betail"}
    lr = build_config(doc).train.sac.lr
    doc["train"] = {**TINY["train"], "sac": {**TINY["train"]["sac"], "lr": 2 * lr}}
    before = _tree(run_copy)
    assert cli.main(["run", "--config", _write(tmp_path / "lr.json", doc),
                     "--out", str(run_copy)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == (
        f"error: {run_copy / 'bundle'}/manifest.json records train.sac.lr {lr!r}, "
        f"not {2 * lr!r} (use another --out, or remove the bundle)\n")
    assert _tree(run_copy) == before


def test_a_longer_budget_resumes_the_default_run_directory(tmp_path, capsys):
    short = {**TINY, "mode": "ail", "train": {**TINY["train"], "iterations": 1}}
    longer = {**short, "train": {**short["train"], "iterations": 2}}
    for doc in (short, longer):
        assert cli.main(["run", "--config", _write(tmp_path / "c.json", doc)]) == cli.EXIT_OK
    (exp,) = (tmp_path / "runs").iterdir()
    (run,) = exp.glob("ail-*")
    assert run.name == f"ail-{build_config(short).run_hash[:8]}"
    assert build_config(short).run_hash == build_config(longer).run_hash
    assert f"resuming from {run / 'bundle'} at iteration 1" in capsys.readouterr().out
    assert json.loads((run / "summary.json").read_text())["iterations"] == 2


def test_a_shorter_budget_is_refused_and_leaves_the_run_unchanged(tmp_path, capsys):
    doc = {**TINY, "mode": "ail"}
    out = tmp_path / "X"
    assert cli.main(["run", "--config", _write(tmp_path / "c.json", doc),
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    before = _tree(out)
    shorter = {**doc, "train": {**doc["train"], "iterations": 1}}
    assert cli.main(["run", "--config", _write(tmp_path / "c.json", shorter),
                     "--out", str(out)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == (
        f"error: {out / 'bundle'}/manifest.json records iteration 2, beyond train.iterations 1 "
        "(a shorter budget cannot resume it; use another --out)\n")
    assert _tree(out) == before


@pytest.fixture(scope="module")
def seed5_run(tmp_path_factory):
    """A finished betail run of the tiny config at seed 5, with --out."""
    root = tmp_path_factory.mktemp("seed5")
    cfg = _write(root / "config.json", {**TINY, "mode": "betail", "seed": 5})
    assert cli.main(["run", "--config", cfg, "--out", str(root / "run")]) == cli.EXIT_OK
    return root / "run"


def test_eval_and_report_of_a_bundle_rewrite_the_runs_summary(seed5_run, tmp_path):
    run = shutil.copytree(seed5_run, tmp_path / "X")
    want = (run / "summary.json").read_bytes()
    assert json.loads(want)["seed"] == 5
    for command in ("eval", "report"):
        assert cli.main([command, "--bundle", str(run / "bundle")]) == cli.EXIT_OK
        assert (run / command / "summary.json").read_bytes() == want, command


@pytest.mark.parametrize("argv", [["run", "--config", "betail.json", "--out", "X"],
                                  ["eval", "--bundle", "X/bundle"],
                                  ["report", "--bundle", "X/bundle"]])
def test_a_bundle_without_a_recorded_config_is_refused(run_copy, tmp_path, capsys, argv):
    _write(tmp_path / "betail.json", {**TINY, "mode": "betail"})
    manifest = run_copy / "bundle" / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["resolved"]
    manifest.write_text(json.dumps(doc))
    before = _tree(tmp_path)
    assert cli.main(argv) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == ("error: X/bundle/manifest.json records no config "
                                       "(an older bundle; train the run again)\n")
    assert _tree(tmp_path) == before


def test_train_mode_bet_evaluates_the_experiments_base(tmp_path, monkeypatch, capsys):
    # The base-only arm of the transfer comparison: the base that
    # pretrain-bet fitted on another course, alone on the target course.
    doc = {**TINY, "challenge": "dragontail-like"}
    cfg = _write(tmp_path / "config.json", doc)
    assert cli.main(["pretrain-bet", "--config", cfg]) == cli.EXIT_OK
    (exp,) = (tmp_path / "runs").iterdir()

    def no_pretrain(*args, **kwargs):
        raise AssertionError("the base was pretrained again")

    monkeypatch.setattr(bet, "pretrain", no_pretrain)
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--mode", "bet"]) == cli.EXIT_OK
    assert f"reusing {exp / 'bet.ckpt'}" in capsys.readouterr().out
    run_cfg = build_config({**doc, "mode": "bet"})
    summary = json.loads((exp / f"bet-{run_cfg.run_hash[:8]}" / "summary.json").read_text())
    assert (summary["mode"], summary["config_hash"]) == ("bet", run_cfg.hash)

    # The same evaluation, built by hand from the experiment's products.
    demos = DemoSet.load(str(exp / "demos.ckpt"))
    model, bet_normalizer, _ = bet.load_bet(str(exp / "bet.ckpt"))
    stack = build_policy_stack("bet", demos.normalizer, demos.obs_dim, None, bet=model,
                               bet_normalizer=bet_normalizer)
    report = evaluate(stack, load_track(str(exp / "track.json")), run_cfg.vehicle,
                      run_cfg.episode, demos, n_cars=run_cfg.train.eval_cars,
                      max_steps=run_cfg.train.eval_max_steps, seed=run_cfg.seed, tag=0)
    assert summary["report"] == json.loads(json.dumps(report.to_dict()))


def test_every_mode_writes_one_summary_shape(betail_run, tmp_path):
    keys = {"betail": json.loads((betail_run / "summary.json").read_text()).keys()}
    for mode in ("bc", "bet"):
        cfg = _write(tmp_path / f"{mode}.json", {**TINY, "mode": mode})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / mode)]) == cli.EXIT_OK
        summary = json.loads((tmp_path / mode / "summary.json").read_text())
        assert (summary["alpha"], summary["env_steps"], summary["iterations"]) == (None, 0, 0)
        keys[mode] = summary.keys()
    assert keys["bc"] == keys["bet"] == keys["betail"]


@pytest.mark.parametrize("mode, again", [("bc", []), ("bet", ["--alpha", "0.3"]),
                                         ("betail", []), ("ail", ["--alpha", "0.3"]),
                                         ("bcail", [])])
def test_a_finished_run_of_any_mode_is_reused_as_it_stands(tmp_path, monkeypatch, capsys,
                                                           mode, again):
    # A bet or ail run reads no alpha, so --alpha 0.3 names the same run.
    cfg = _write(tmp_path / "c.json", TINY)
    assert cli.main(["train", "--config", cfg, "--mode", mode]) == cli.EXIT_OK
    (exp,) = (tmp_path / "runs").iterdir()
    (run,) = exp.glob(f"{mode}-*")
    before = _tree(tmp_path / "runs")

    def no_work(*args, **kwargs):
        raise AssertionError("the run was done again")

    for owner, name in ((cli, "train_bc"), (cli.eval_mod, "evaluate"), (bet, "pretrain"),
                        (ail, "load_bundle"), (ail.Trainer, "iteration")):
        monkeypatch.setattr(owner, name, no_work)
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--mode", mode, *again]) == cli.EXIT_OK
    assert capsys.readouterr().out == f"reusing {run / 'summary.json'}\n"
    assert _tree(tmp_path / "runs") == before


def test_a_run_stopped_before_its_summary_finishes_from_its_bundle(betail_run, tmp_path,
                                                                   monkeypatch, capsys):
    cfg = _write(tmp_path / "config.json", {**TINY, "mode": "betail"})
    out = tmp_path / "run"
    emit_report = cli.emit_report

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "emit_report", interrupt)
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "interrupted\n"
    assert ail.read_manifest(str(out / "bundle"))["iteration"] == 2
    assert not (out / "summary.json").exists()

    def no_work(*args, **kwargs):
        raise AssertionError("the run was loaded or evaluated again")

    monkeypatch.setattr(cli, "emit_report", emit_report)
    monkeypatch.setattr(cli.eval_mod, "evaluate", no_work)
    monkeypatch.setattr(ail, "load_bundle", no_work)
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert (out / "summary.json").read_bytes() == (betail_run / "summary.json").read_bytes()


def test_a_skipped_actor_critic_block_is_named_in_its_iteration_line(tmp_path, capsys):
    # The first rollout leaves 4 x 100 = 400 replay rows, below one batch.
    cfg = _write(tmp_path / "c.json", {
        "profile": "smoke", "challenge": "maggiore-like", "mode": "ail", "demos": {"laps": 1},
        "train": {"iterations": 2, "eval_max_steps": 30, "sac": {"batch": 512}}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  iter ")]
    skipped = "actor-critic skipped (replay 400 below batch 512)"
    assert [skipped in line for line in lines] == [True, False]
    assert "reward" in lines[1]


def test_interrupted_summary_write_leaves_the_run_unfinished(tmp_path, monkeypatch, capsys):
    cfg, out = _write(tmp_path / "c.json", TINY), tmp_path / "X"

    def torn(doc, fh, **kwargs):
        fh.write("{")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.eval_mod, "json", types.SimpleNamespace(dump=torn))
    assert cli.main(["train", "--config", cfg, "--mode", "bc", "--out", str(out)]) == \
        cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "interrupted\n"
    assert not (out / "summary.json").exists() and not (out / "summary.json.tmp").exists()

    monkeypatch.setattr(cli.eval_mod, "json", json)
    assert cli.main(["train", "--config", cfg, "--mode", "bc", "--out", str(out)]) == cli.EXIT_OK
    assert "cloned base" in capsys.readouterr().out
    assert json.loads((out / "summary.json").read_text())["mode"] == "bc"


def test_a_supervised_run_of_another_config_is_refused(tmp_path, capsys):
    cfg, out = _write(tmp_path / "c.json", TINY), tmp_path / "X"
    assert cli.main(["train", "--config", cfg, "--mode", "bc", "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    before = _tree(out)
    # A trained mode is checked against config.json too, without a bundle.
    for mode in ("bet", "ail"):
        assert cli.main(["train", "--config", cfg, "--mode", mode, "--out", str(out)]) == \
            cli.EXIT_RUNTIME
        assert capsys.readouterr().err == (f"error: {out / 'config.json'} records mode 'bc', "
                                           f"not '{mode}' (use another --out, or remove the run)\n")
        assert _tree(out) == before


def test_interrupted_config_write_leaves_no_record(tmp_path, monkeypatch, capsys):
    cfg, out = _write(tmp_path / "c.json", TINY), tmp_path / "X"

    def torn(doc, fh, **kwargs):
        fh.write("{")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(load=json.load, dump=torn))
    assert cli.main(["train", "--config", cfg, "--mode", "ail", "--out", str(out)]) == \
        cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "interrupted\n"
    assert not (out / "config.json").exists() and not (out / "config.json.tmp").exists()

    # A torn config.json would stop the next run at its check.
    monkeypatch.setattr(cli, "json", json)
    assert cli.main(["train", "--config", cfg, "--mode", "ail", "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "config.json").read_text())["resolved"]["mode"] == "ail"


@pytest.mark.parametrize("flag, value, low",
                         [("--cars", "0", 1), ("--max-steps", "1", 2), ("--tag", "-1", 0)])
def test_eval_size_below_its_bound_is_refused_before_anything_is_written(
        run_copy, tmp_path, capsys, flag, value, low):
    before = _tree(tmp_path)
    assert cli.main(["eval", "--bundle", str(run_copy / "bundle"), flag, value]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: eval {flag} must be >= {low}, got {value}\n"
    assert _tree(tmp_path) == before


def test_eval_and_report_round_trip_from_the_policy_files_alone(run_copy, tmp_path):
    for name in ("replay.ckpt", "optim.ckpt", "q1.ckpt", "q2.ckpt", "disc.ckpt"):
        (run_copy / "bundle" / name).unlink()
    bundle = str(run_copy / "bundle")
    assert cli.main(["eval", "--bundle", bundle, "--out", "e"]) == cli.EXIT_OK
    assert cli.main(["report", "--bundle", bundle, "--out", "r"]) == cli.EXIT_OK
    reports = [json.loads((d / "summary.json").read_text())["report"]
               for d in (run_copy, tmp_path / "e", tmp_path / "r")]
    assert reports[0] == reports[1] == reports[2]
    assert (tmp_path / "e" / "eval_cars.csv").read_bytes() == \
        (run_copy / "eval_cars.csv").read_bytes()


def test_a_bundle_that_a_stopped_save_moved_aside_is_put_back(run_copy):
    (run_copy / "bundle").rename(run_copy / "bundle.old")
    assert cli.main(["report", "--bundle", str(run_copy / "bundle"),
                     "--out", str(run_copy / "r")]) == cli.EXIT_OK
    assert sorted(p.name for p in run_copy.glob("bundle*")) == ["bundle"]


MISNAMED = {"track-nope": ("track", "nope.json"), "demos-nope": ("demos", "nope.ckpt"),
            "demos-bet": ("demos", "X/bet.ckpt"), "track-config": ("track", "X/config.json"),
            "track-demos": ("track", "X/demos.ckpt")}


@pytest.mark.parametrize("argv, code, message", [
    (["gen-track", "--config", "bad.json"], 1, "is not valid JSON"),
    (["gen-track", "--seed", "5", "--config", "tiny.json", "--out", "X"], 2, "stage key"),
    (["gen-demos", "--config", "unknown.json"], 1, "unknown config key 'trian'"),
    (["gen-demos", "--seed", "5", "--config", "tiny.json", "--out", "X"], 2, "stage key"),
    (["pretrain-bet", "--config", "bad.json"], 1, "is not valid JSON"),
    (["pretrain-bet", "--seed", "5", "--config", "tiny.json", "--out", "X"], 2, "stage key"),
    (["train", "--config", "tiny.json"], 1, "config field 'mode' is required"),
    (["train", "--mode", "betail", "--bet", "x.ckpt", "--config", "tiny.json"], 1,
     "unrecognized arguments: --bet x.ckpt"),
    (["run", "--config", "unknown.json"], 1, "unknown config key 'trian'"),
    (["run", "--seed", "5", "--config", "betail.json", "--out", "X"], 2, "stage key"),
    (["eval"], 1, "eval needs --bundle"),
    (["eval", "--bundle", "nope"], 2, "missing bundle manifest: nope/manifest.json"),
    (["eval", "--bundle", "track-nope/bundle"], 2,
     "missing course file: nope.json (named by track-nope/bundle/manifest.json)"),
    (["eval", "--bundle", "demos-nope/bundle"], 2,
     "missing demonstration file: nope.ckpt (named by demos-nope/bundle/manifest.json)"),
    (["report"], 1, "report needs --bundle"),
    (["report", "--bundle", "nope"], 2, "missing bundle manifest: nope/manifest.json"),
    (["bet-info"], 1, "bet-info needs --bet"),
    (["bet-info", "--bet", "nope.ckpt"], 2, "missing sequence-base checkpoint: nope.ckpt"),
    (["eval", "--bundle", "demos-bet/bundle"], 2, "not a demonstration file: X/bet.ckpt"),
    (["eval", "--bundle", "track-config/bundle"], 2,
     "unrecognized track format in X/config.json"),
    (["eval", "--bundle", "track-demos/bundle"], 2, "unreadable track file X/demos.ckpt"),
    (["gen-track", "--config", "radus.json"], 1,
     "invalid 'track' config: unknown track parameters: ['radus']"),
    (["gen-track", "--config", "narrow.json"], 1,
     "invalid 'track' config: half_width must be >= 3.0, got 1"),
    (["pretrain-bet", "--config", "pretrain-x.json"], 1,
     "invalid 'pretrain_tracks[0]' config: track parameter 'radius' must be a number, got 'x'"),
    (["gen-track", "--config", "tiny-circle.json"], 1,
     "invalid 'track' config: vertex spacing must lie in [0.5, 10.0]"),
    (["pretrain-bet", "--config", "inside-out.json"], 1,
     "invalid 'pretrain_tracks[0]' config: curvature * half_width must stay below 1"),
])
def test_exit_codes_name_the_bad_value(run_copy, tmp_path, capsys, argv, code, message):
    _write(tmp_path / "bad.json", "{not json")
    _write(tmp_path / "unknown.json", {**TINY, "trian": {}})
    _write(tmp_path / "tiny.json", TINY)
    _write(tmp_path / "betail.json", {**TINY, "mode": "betail"})
    _write(tmp_path / "radus.json", {**TINY, "track": {"preset": "circle", "radus": 100}})
    _write(tmp_path / "narrow.json", {**TINY, "track": {**CHALLENGES["maggiore-like"]["track"],
                                                        "half_width": 1}})
    _write(tmp_path / "pretrain-x.json",
           {**TINY, "pretrain_tracks": [{"preset": "oval", "radius": "x"}]})
    _write(tmp_path / "tiny-circle.json", {**TINY, "track": {"preset": "circle", "radius": 1}})
    _write(tmp_path / "inside-out.json",
           {**TINY, "pretrain_tracks": [{"preset": "oval", "radius": -50}]})
    # Copies of X's manifest that name a missing or foreign course or demo
    # file in place of X's own; eval reads those files before the nets.
    manifest = json.loads((run_copy / "bundle" / "manifest.json").read_text())
    for name, (key, target) in MISNAMED.items():
        files = {"track": "X/track.json", "demos": "X/demos.ckpt", key: target}
        (tmp_path / name / "bundle").mkdir(parents=True)
        _write(tmp_path / name / "bundle" / "manifest.json", {**manifest, **{
            k: os.path.relpath(path, os.path.join(name, "bundle")) for k, path in files.items()}})
    before = _tree(tmp_path)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 1 else "error: ")
    assert message in err and "Traceback" not in err
    assert _tree(tmp_path) == before
