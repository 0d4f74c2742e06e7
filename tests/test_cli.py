"""End-to-end tests of the command line."""

import hashlib
import json
import os
import subprocess
import sys

from racelab import cli

# sha256 of the smoke run's outputs. The pipeline is bit-deterministic, so
# any change here is a change of numerics and is re-blessed on purpose.
GOLDEN = {
    "summary.json": "1ce3d699fd0cf522210d5d4f2d0096d3b8653fb6d60ed331b3e5a5f5a430fdeb",
    "bet.ckpt": "cbd3e467e1b3e86499a86aabe08bdc4d81d564aa5d8597cc8109aac6baf3a4c0",
    "bundle/residual.ckpt": "8b94b6f1b1bdc483ffd2ca29cddfaae00fc2d83fa5a3d3e729aa98c5f6d64c98",
}


def test_smoke_run_matches_golden_fingerprint(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"profile": "smoke", "challenge": "maggiore-like",
                               "mode": "betail", "seed": 0}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    got = {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest() for rel in GOLDEN}
    assert got == GOLDEN


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
