"""End-to-end tests of the command line."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from racelab import bet, cli, nets
from racelab.env import Normalizer

# sha256 of the smoke run's outputs. The pipeline is bit-deterministic, so
# any change here is a change of numerics and is re-blessed on purpose.
GOLDEN = {
    "summary.json": "23dc634ad2a820e67b35036637e51736c9dedac5190cd1d46503bcc0008d755b",
    "bet.ckpt": "0d6d1547eea8b146d3a6799390aa8c5f9ab9b045d32ef001e3627d11b64e2b57",
    "bundle/residual.ckpt": "964298cf3624977ef784b45ba9010b30a9bbeaef5c81212649eeb9aad52e80ef",
}


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


def _gen_track(out):
    return cli.main(["gen-track", "--preset", "circle", "--out", str(out)])


def test_lock_of_a_dead_process_is_reclaimed(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid is no longer alive
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text(f"{child.pid}\n")
    assert _gen_track(out) == cli.EXIT_OK
    assert (out / "track.json").exists()
    assert not (out / ".lock").exists()


def test_lock_of_a_live_process_refuses_the_run(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text(f"{os.getpid()}\n")
    assert _gen_track(out) == cli.EXIT_RUNTIME
    assert f"pid {os.getpid()}" in capsys.readouterr().err
    assert (out / ".lock").read_text() == f"{os.getpid()}\n"
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
    stale = {**model.cfg.to_dict(), "nonlinearity": "relu", "loss_positions": "all"}
    del stale["w_std"]
    path = tmp_path / "bet.ckpt"
    nets.save_params(str(path), model.params(), {
        "kind": "bet", "config": stale, "normalizer": Normalizer.identity(6).to_dict()})
    assert cli.main(["bet-info", "--bet", str(path)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "stale keys ['loss_positions', 'nonlinearity'], missing keys ['w_std']" in err


@pytest.mark.parametrize("command", ["eval", "report"])
def test_old_bundle_is_refused_without_a_traceback(tmp_path, capsys, command):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "manifest.json").write_text(json.dumps({"format": "racelab-bundle-v1"}))
    assert cli.main([command, "--bundle", str(bundle)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: not a racelab-bundle-v2 checkpoint bundle: {bundle}\n"
