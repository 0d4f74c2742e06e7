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
    "bet.ckpt": "3d9e1ffda4e94514f65ff54c10b79492022ebcc9b2c7d01bfe7f63815354bde2",
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


# sha256 of a bcail run of TINY (below), the cloned-base arm, with --out.
GOLDEN_BCAIL = {
    "summary.json": "71346d1f4bc446453068fbbd63e1ec451ca4e2e0f2a98376d42e7e13a2ccf4a2",
    "bundle/residual.ckpt": "83c747b15bacff4810a10a80167b17007d5edea54baae7d8a177ca8fdeac570a",
}


@pytest.mark.exact_bits
def test_bcail_run_matches_its_fingerprint(tmp_path):
    cfg = _write(tmp_path / "config.json", {**TINY, "mode": "bcail"})
    out = tmp_path / "run"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    got = {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest() for rel in GOLDEN_BCAIL}
    assert got == GOLDEN_BCAIL


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


# sha256 of track.json for the random rule at its defaults and each
# challenge course, as the stage pipeline builds them with gen_track(**spec).
COURSE_FILES = {
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
    cfg = out.parent / "course.json"
    cfg.write_text(json.dumps({"track": {"preset": "random"}}))
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


# The whitener that leaves the six features of _small_bet as they are.
UNIT = Normalizer(np.zeros(6, dtype=np.float32), np.ones(6, dtype=np.float32))


def _small_bet():
    return bet.BeT(bet.BeTConfig(obs_dim=6, embed_dim=8, n_layers=1, n_heads=2, context=4,
                                 eval_context=2), np.random.default_rng(3))


def test_bet_info_prints_the_parameter_checksum(tmp_path, capsys):
    model = _small_bet()
    path = tmp_path / "bet.ckpt"
    bet.save_bet(str(path), model, UNIT)
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
        "kind": "bet", "config": stale, "normalizer": UNIT.to_dict()})
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
                                         "normalizer": UNIT.to_dict()})
    with pytest.raises(nets.CheckpointError, match="missing parameter blk0.qkv.W"):
        bet.load_bet(str(path))
    assert cli.main(["bet-info", "--bet", str(path)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == "error: checkpoint missing parameter blk0.qkv.W\n"


@pytest.mark.parametrize("case", ["an entry without a dtype", "no tensor list", "an int dtype"])
def test_bet_info_on_a_malformed_header_is_refused_without_a_traceback(tmp_path, capsys, case):
    path = tmp_path / "bet.ckpt"
    bet.save_bet(str(path), _small_bet(), UNIT)
    line, buffers = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    if case == "an entry without a dtype":
        del header["tensors"][0]["dtype"]
    elif case == "no tensor list":
        del header["tensors"]
    else:
        header["tensors"][0]["dtype"] = "<i4"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + buffers)
    assert cli.main(["bet-info", "--bet", str(path)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: unreadable checkpoint header in {path}\n"


@pytest.mark.parametrize("command", ["eval", "report"])
def test_old_bundle_is_refused_without_a_traceback(tmp_path, capsys, command):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for old in ("racelab-bundle-v1", "racelab-bundle-v2", "racelab-bundle-v3",
                "racelab-bundle-v4", "racelab-bundle-v5"):
        (bundle / "manifest.json").write_text(json.dumps({"format": old}))
        assert cli.main([command, "--bundle", str(bundle)]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == \
            f"error: not a racelab-bundle-v6 checkpoint bundle: {bundle}\n"


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


def _stage(root, kind, key):
    """The default path of a stage product of a kind under root."""
    name = "track.json" if kind == "track" else f"{kind}.ckpt"
    return root / "stages" / key[:8] / name


def _tree(root):
    """Relative path -> sha256 of every file under root, and -> None of
    every directory under it."""
    return {os.path.relpath(os.path.join(d, f), root):
            None if f in dirs else hashlib.sha256(pathlib.Path(d, f).read_bytes()).hexdigest()
            for d, dirs, files in os.walk(root) for f in dirs + files}


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
    root = tmp_path / "runs"
    # One course, one demonstration set and one base: the pretraining
    # course of maggiore-like is its target course.
    assert sorted(p.name for p in (root / "stages").glob("*/*")) == \
        ["bet.ckpt", "bet_pretrain.json", "demos.ckpt", "track.json"]
    (base,) = root.glob("stages/*/bet.ckpt")
    (run,) = root.glob("betail-*")
    for rel in COMPARED:
        path = base if rel == "bet.ckpt" else run / rel
        assert path.read_bytes() == (betail_run / rel).read_bytes(), rel

    # The bundle names its course and demo files, so eval finds them here.
    assert cli.main(["eval", "--bundle", str(run / "bundle"), "--out", "e"]) == cli.EXIT_OK
    assert json.loads((tmp_path / "e" / "summary.json").read_text())["report"] == \
        json.loads((run / "summary.json").read_text())["report"]

    # A second run reuses the base: alpha is not part of its key.
    def no_pretrain(*args, **kwargs):
        raise AssertionError("the base was pretrained again")

    monkeypatch.setattr(bet, "pretrain", no_pretrain)
    stages = _tree(root / "stages")
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--mode", "betail", "--alpha", "0.1"]) == \
        cli.EXIT_OK
    assert f"reusing {base}" in capsys.readouterr().out
    assert _tree(root / "stages") == stages
    (other,) = set(root.glob("betail-*")) - {run}
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
    (["run", "--seed", "5"], ["bet.ckpt", "stage key"]),
])
def test_a_run_of_another_config_leaves_the_directory_unchanged(run_copy, tmp_path, capsys,
                                                                argv, named):
    cfg = _write(tmp_path / "config.json", {**TINY, "mode": "betail"})
    before = _tree(run_copy)
    assert cli.main(argv + ["--config", cfg, "--out", str(run_copy)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(part in err for part in named)
    if argv[0] == "run":  # both keys of the base
        recorded = nets.load_meta(str(run_copy / "bet.ckpt"))["config_hash"]
        wanted = build_config({**TINY, "mode": "betail", "seed": 5}).base_key("bet")
        assert f"stage key {recorded}, not {wanted}" in err and err.count("stage key") == 1
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
    (run,) = (tmp_path / "runs").glob("ail-*")
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


def test_report_generates_no_course(run_copy, monkeypatch):
    from racelab import config, track

    calls = [_count_calls(monkeypatch, owner, "gen_track") for owner in (track, config, cli)]
    want = (run_copy / "summary.json").read_bytes()
    assert cli.main(["report", "--bundle", str(run_copy / "bundle")]) == cli.EXIT_OK
    assert calls == [[], [], []]
    assert (run_copy / "report" / "summary.json").read_bytes() == want


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
    root = tmp_path / "runs"
    (base,) = root.glob("stages/*/bet.ckpt")

    def no_pretrain(*args, **kwargs):
        raise AssertionError("the base was pretrained again")

    monkeypatch.setattr(bet, "pretrain", no_pretrain)
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--mode", "bet"]) == cli.EXIT_OK
    assert f"reusing {base}" in capsys.readouterr().out
    run_cfg = build_config({**doc, "mode": "bet"})
    summary = json.loads((root / f"bet-{run_cfg.run_hash[:8]}" / "summary.json").read_text())
    assert (summary["mode"], summary["config_hash"]) == ("bet", run_cfg.hash)

    # The same evaluation, built by hand from the products.
    course, laps = run_cfg.track_spec, run_cfg.demo_laps
    demos = DemoSet.load(str(_stage(root, "demos", run_cfg.demos_key(course, laps))))
    model, bet_normalizer, _ = bet.load_bet(str(base))
    stack = build_policy_stack("bet", demos.normalizer, demos.obs_dim, None, bet=model,
                               bet_normalizer=bet_normalizer)
    track = load_track(str(_stage(root, "track", run_cfg.course_key(course))))
    report = evaluate(stack, track, run_cfg.vehicle,
                      run_cfg.episode, demos, n_cars=run_cfg.train.eval_cars,
                      max_steps=run_cfg.train.eval_max_steps, seed=run_cfg.seed, tag=0)
    assert summary["report"] == json.loads(json.dumps(report.to_dict()))


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name to count its calls; returns the list of calls."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_challenges_that_share_pretraining_courses_share_one_base(tmp_path, monkeypatch,
                                                                  capsys):
    fits = _count_calls(monkeypatch, bet, "pretrain")
    for challenge in ("maggiore-like", "dragontail-like"):
        cfg = _write(tmp_path / "c.json", {**TINY, "challenge": challenge})
        assert cli.main(["pretrain-bet", "--config", cfg]) == cli.EXIT_OK
    (base,) = tmp_path.glob("runs/stages/*/bet.ckpt")
    assert f"reusing {base}" in capsys.readouterr().out
    assert len(fits) == 1


def test_bc_and_bcail_share_one_cloned_base_fitted_as_the_sequence_base(tmp_path, monkeypatch):
    # On a transfer course both bases learn from the pretraining course's
    # demonstrations, so they record one whitener.
    fits = _count_calls(monkeypatch, cli, "train_bc")
    cfg = _write(tmp_path / "c.json", {**TINY, "challenge": "dragontail-like"})
    for mode in ("bc", "bcail", "bet"):
        assert cli.main(["train", "--config", cfg, "--mode", mode]) == cli.EXIT_OK
    assert len(fits) == 1
    (bc,), (sequence,) = (tmp_path.glob(f"runs/stages/*/{name}") for name in ("bc.ckpt", "bet.ckpt"))
    assert nets.load_meta(str(bc))["normalizer"] == nets.load_meta(str(sequence))["normalizer"]
    target = build_config({**TINY, "challenge": "dragontail-like", "mode": "bc"})
    demos = DemoSet.load(str(_stage(tmp_path / "runs", "demos", target.demos_key(
        target.track_spec, target.demo_laps))))
    assert nets.load_meta(str(bc))["normalizer"] != demos.normalizer.to_dict()


def test_a_run_on_its_pretraining_course_records_its_demonstrations_once(tmp_path,
                                                                         monkeypatch):
    records = _count_calls(monkeypatch, cli, "generate_demos")
    out = tmp_path / "X"
    cfg = _write(tmp_path / "c.json", {**TINY, "mode": "betail"})
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert len(records) == 1 and not (out / "pretrain").exists()


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
    (run,) = (tmp_path / "runs").glob(f"{mode}-*")
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
    assert f"reusing {out / 'bc.ckpt'}" in capsys.readouterr().out
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


def test_a_bundle_that_a_stopped_save_moved_aside_is_put_back(run_copy, tmp_path, capsys):
    # By the next run of its config, which holds the run directory's lock,
    # and which then resumes from it.
    (run_copy / "bundle").rename(run_copy / "bundle.old")
    longer = {**TINY, "mode": "betail", "train": {**TINY["train"], "iterations": 3}}
    cfg = _write(tmp_path / "config.json", longer)
    assert cli.main(["run", "--config", cfg, "--out", str(run_copy)]) == cli.EXIT_OK
    assert f"resuming from {run_copy / 'bundle'} at iteration 2" in capsys.readouterr().out
    assert sorted(p.name for p in run_copy.glob("bundle*")) == ["bundle"]


def test_only_the_holder_of_a_run_directory_moves_its_bundle(tmp_path, capsys):
    # A save in progress: the run directory is locked and its old bundle
    # sits at bundle.old. Another run of the config, eval and report each
    # leave it there.
    doc = {**TINY, "mode": "ail", "train": {**TINY["train"], "iterations": 1}}
    cfg = _write(tmp_path / "c.json", doc)
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_OK
    run = tmp_path / "runs" / f"ail-{build_config(doc).run_hash[:8]}"
    (run / "bundle").rename(run / "bundle.old")
    capsys.readouterr()
    with cli._locked(str(run)):
        before = _tree(tmp_path)
        for argv, message in (
                (["run", "--config", cfg],
                 f"output directory {run} is locked by the run with pid {os.getpid()}"),
                (["eval", "--bundle", str(run / "bundle")], "missing bundle manifest"),
                (["report", "--bundle", str(run / "bundle")], "missing bundle manifest")):
            assert cli.main(argv) == cli.EXIT_RUNTIME
            assert message in capsys.readouterr().err
            assert _tree(tmp_path) == before


@pytest.mark.parametrize("layout", ["out", "default"])
def test_a_refused_command_leaves_every_file_and_directory_as_it_was(tmp_path, capsys, layout):
    # The target course's file is of another course, so the products are
    # refused; the locks had made the directories of the run and of the
    # other products, three pretraining courses among them.
    doc = {**TINY, "challenge": "panorama-like"}
    cfg = _write(tmp_path / "c.json", doc)
    argv = ["train", "--mode", "betail", "--config", cfg]
    if layout == "out":
        argv += ["--out", str(tmp_path / "X")]
        course = tmp_path / "X" / "track.json"
    else:
        resolved = build_config({**doc, "mode": "betail"})
        course = _stage(tmp_path / "runs", "track", resolved.course_key(resolved.track_spec))
    course.parent.mkdir(parents=True)
    save_track(gen_track("random", seed=99), str(course))
    before = _tree(tmp_path)
    assert cli.main(argv) == cli.EXIT_RUNTIME
    assert f"{course} was built under stage key None" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("alpha", [2.0, 0.0, "0.05"])
def test_a_bundle_that_records_an_alpha_outside_its_range_is_refused(run_copy, capsys, alpha):
    path = run_copy / "bundle" / "residual.ckpt"
    meta, arrays = nets.load_params(str(path))
    nets.save_params(str(path), arrays, {**meta, "alpha": alpha})
    before = _tree(run_copy.parent)
    assert cli.main(["eval", "--bundle", str(run_copy / "bundle")]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == (f"error: {run_copy / 'bundle'}/residual.ckpt records "
                                       f"alpha {alpha!r}, not a number in (0, 1]\n")
    assert _tree(run_copy.parent) == before


@pytest.mark.parametrize("radius, bound", [
    (1, "vertex spacing must lie in [0.5, 10.0], got [0.098, 0.0981]"),
    (6, "curvature * half_width must stay below 1"),
])
def test_a_course_that_cannot_be_built_names_the_bound_it_breaks(tmp_path, capsys, radius,
                                                                  bound):
    cfg = _write(tmp_path / "course.json",
                 {"track": {"preset": "random", "radius": radius, "roughness": 0.0}})
    before = _tree(tmp_path)
    assert cli.main(["gen-track", "--config", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: invalid 'track' config: could not "
                                       f"generate a valid random track: {bound}\n")
    assert _tree(tmp_path) == before


def test_resuming_a_bundle_whose_replay_does_not_fit_is_refused(run_copy, tmp_path, capsys):
    replay = run_copy / "bundle" / "replay.ckpt"
    meta, arrays = nets.load_params(str(replay))
    stored = arrays["data"].shape
    nets.save_params(str(replay), arrays, {**meta, "capacity": meta["capacity"] + 1})
    longer = {**TINY, "mode": "betail", "train": {**TINY["train"], "iterations": 3}}
    cfg = _write(tmp_path / "config.json", longer)
    before = _tree(run_copy / "bundle")
    argv = ["train", "--mode", "betail", "--config", cfg, "--out", str(run_copy)]
    assert cli.main(argv) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == (
        f"error: {replay} holds a replay of shape {stored} in a ring of "
        f"{meta['capacity'] + 1} rows, which does not fit this run's ring of shape "
        f"{(meta['capacity'], stored[1])}\n")
    assert _tree(run_copy / "bundle") == before


def test_a_resume_that_the_bundle_refuses_leaves_the_runs_config(run_copy, tmp_path, capsys):
    replay = run_copy / "bundle" / "replay.ckpt"
    meta, arrays = nets.load_params(str(replay))
    nets.save_params(str(replay), arrays, {**meta, "capacity": meta["capacity"] + 1})
    before = (run_copy / "config.json").read_bytes()
    longer = {**TINY, "mode": "betail", "train": {**TINY["train"], "iterations": 3}}
    cfg = _write(tmp_path / "config.json", longer)
    argv = ["train", "--mode", "betail", "--config", cfg, "--out", str(run_copy)]
    assert cli.main(argv) == cli.EXIT_RUNTIME
    assert f"error: {replay} holds a replay" in capsys.readouterr().err
    assert (run_copy / "config.json").read_bytes() == before


MISNAMED = {"track-nope": ("track", "nope.json"), "demos-nope": ("demos", "nope.ckpt"),
            "demos-bet": ("demos", "X/bet.ckpt"), "track-config": ("track", "X/config.json"),
            "track-demos": ("track", "X/demos.ckpt")}


@pytest.mark.parametrize("argv, code, message", [
    (["gen-track", "--config", "bad.json"], 1, "is not valid JSON"),
    (["gen-track", "--config", "other-course.json", "--out", "X"], 2, "stage key"),
    (["gen-demos", "--config", "unknown.json"], 1, "unknown config key 'trian'"),
    (["gen-demos", "--config", "other-demos.json", "--out", "X"], 2, "stage key"),
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
    (["gen-track", "--config", "tiny-course.json"], 1,
     "invalid 'track' config: could not generate a valid random track"),
    (["pretrain-bet", "--config", "tight-course.json"], 1,
     "invalid 'pretrain_tracks[0]' config: could not generate a valid random track"),
    (["gen-track", "--config", "circle.json"], 1,
     "invalid 'track' config: unknown track preset 'circle' (the one preset is 'random')"),
    (["run", "--config", "oval.json"], 1, "invalid 'track' config: unknown track preset 'oval'"),
])
def test_exit_codes_name_the_bad_value(run_copy, tmp_path, capsys, argv, code, message):
    _write(tmp_path / "bad.json", "{not json")
    _write(tmp_path / "unknown.json", {**TINY, "trian": {}})
    _write(tmp_path / "tiny.json", TINY)
    _write(tmp_path / "other-course.json",
           {**TINY, "track": {**CHALLENGES["maggiore-like"]["track"], "seed": 8}})
    _write(tmp_path / "other-demos.json", {**TINY, "demos": {**TINY["demos"], "seed": 5}})
    _write(tmp_path / "betail.json", {**TINY, "mode": "betail"})
    _write(tmp_path / "radus.json", {**TINY, "track": {"preset": "random", "radus": 100}})
    _write(tmp_path / "narrow.json", {**TINY, "track": {**CHALLENGES["maggiore-like"]["track"],
                                                        "half_width": 1}})
    _write(tmp_path / "pretrain-x.json",
           {**TINY, "pretrain_tracks": [{"preset": "random", "radius": "x"}]})
    _write(tmp_path / "tiny-course.json", {**TINY, "track": {"preset": "random", "radius": 1}})
    _write(tmp_path / "tight-course.json",
           {**TINY, "pretrain_tracks": [{"preset": "random", "radius": 6}]})
    _write(tmp_path / "circle.json", {**TINY, "track": {"preset": "circle"}})
    _write(tmp_path / "oval.json", {**TINY, "mode": "betail", "track": {"preset": "oval"}})
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
