"""Configuration resolution: schema strictness, layering, and hashing."""

import json

import pytest

from racelab import cli
from racelab.config import (
    CHALLENGES,
    PROFILES,
    ConfigError,
    build_config,
    config_hash,
)
from racelab.env import obs_dim
from racelab.policies import TRAIN_MODES


def minimal(**extra):
    d = {"mode": "ail", "track": {"preset": "circle", "radius": 80.0}}
    d.update(extra)
    return d


# ---------------------------------------------------------------- resolution


def test_minimal_config_resolves():
    cfg = build_config(minimal())
    assert cfg.mode == "ail"
    assert cfg.profile == "desk"
    assert cfg.seed == 0
    assert cfg.track_spec["preset"] == "circle"


def test_root_must_be_object():
    with pytest.raises(ConfigError, match="JSON object"):
        build_config(["mode", "ail"])


def test_mode_is_required():
    with pytest.raises(ConfigError, match="'mode' is required"):
        build_config({"track": {"preset": "circle"}})


def test_unknown_mode_lists_choices():
    with pytest.raises(ConfigError, match="unknown mode 'dagger'"):
        build_config(minimal(mode="dagger"))


def test_track_required_without_challenge():
    with pytest.raises(ConfigError, match="'track' is required"):
        build_config({"mode": "ail"})


def test_unknown_key_is_named_by_path():
    with pytest.raises(ConfigError, match="unknown config key 'train.bogus'"):
        build_config(minimal(train={"bogus": 1}))


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown config key 'learning_rate'"):
        build_config(minimal(learning_rate=1e-3))


# Keys that no code read, that took one value only, or that repeated what
# the episode fixes; each with the value it used to default to.
REMOVED_KEYS = {
    "episode.train_steps": 500,
    "episode.eval_steps": 5000,
    "episode.n_cars": 20,
    "episode.progress_weight": 0.01,
    "bet.nonlinearity": "relu",
    "bet.loss_positions": "all",
    "bet.obs_dim": 50,
    "bet.act_dim": 2,
}


@pytest.mark.parametrize("path", sorted(REMOVED_KEYS))
def test_removed_key_is_rejected_by_path(path, tmp_path, capsys):
    table, key = path.split(".")
    doc = {table: {key: REMOVED_KEYS[path]}}
    with pytest.raises(ConfigError, match=f"unknown config key '{path}'"):
        build_config(minimal(**doc))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    argv = ["gen-track", "--config", str(cfg), "--preset", "circle", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"unknown config key '{path}'" in capsys.readouterr().err
    assert not out.exists()


def test_scalar_cannot_replace_table():
    with pytest.raises(ConfigError, match="'bet' must be a table"):
        build_config(minimal(bet=7))


def test_typed_subconfig_errors_are_wrapped():
    # A structurally valid table whose values fail the dataclass's own
    # validation surfaces as a ConfigError naming the subtree.
    with pytest.raises(ConfigError, match="invalid 'bet' config"):
        build_config(minimal(bet={"embed_dim": 30, "n_heads": 4}))


def test_track_subtree_is_free_form():
    # Course generation parameters are preset-specific and pass through
    # unvalidated here.
    cfg = build_config(
        minimal(track={"preset": "random", "seed": 5, "roughness": 0.3, "radius": 150})
    )
    assert cfg.track_spec["roughness"] == 0.3


# ------------------------------------------------------------------ profiles


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError, match="unknown profile 'gpu'"):
        build_config(minimal(profile="gpu"))


def test_profiles_all_resolve():
    for profile in PROFILES:
        cfg = build_config(minimal(profile=profile))
        assert cfg.profile == profile


def test_smoke_profile_shrinks_budgets():
    desk = build_config(minimal())
    smoke = build_config(minimal(profile="smoke"))
    assert smoke.bet.embed_dim < desk.bet.embed_dim
    assert smoke.train.iterations < desk.train.iterations
    assert smoke.demo_laps < desk.demo_laps


def test_paper_profile_grows_budgets():
    desk = build_config(minimal())
    paper = build_config(minimal(profile="paper"))
    assert paper.bet.updates > desk.bet.updates
    assert paper.train.iterations > desk.train.iterations
    assert paper.train.replay_capacity > desk.train.replay_capacity


def test_user_override_beats_profile():
    cfg = build_config(minimal(profile="smoke", train={"iterations": 11}))
    assert cfg.train.iterations == 11


# ---------------------------------------------------------------- challenges


def test_unknown_challenge_lists_names():
    with pytest.raises(ConfigError, match="unknown challenge 'monza'"):
        build_config({"mode": "betail", "challenge": "monza"})


def test_challenge_supplies_track_alpha_and_pretrain():
    for name, preset in CHALLENGES.items():
        cfg = build_config({"mode": "betail", "challenge": name})
        assert cfg.alpha == preset["alpha"]
        assert cfg.track_spec == preset["track"]
        assert cfg.pretrain_track_specs == preset["pretrain_tracks"]


def test_challenge_transfer_uses_distinct_courses():
    cfg = build_config({"mode": "betail", "challenge": "dragontail-like"})
    assert cfg.track_spec != cfg.pretrain_track_specs[0]


def test_multi_course_pretraining_preset():
    cfg = build_config({"mode": "betail", "challenge": "panorama-like"})
    assert len(cfg.pretrain_track_specs) == 3


def test_user_override_beats_challenge():
    cfg = build_config({"mode": "betail", "challenge": "maggiore-like", "alpha": 0.5})
    assert cfg.alpha == 0.5


# --------------------------------------------------------- mode requirements


def test_residual_on_base_requires_alpha():
    for mode in ("betail", "bcail", "betsac"):
        with pytest.raises(ConfigError, match=f"mode '{mode}' requires 'alpha'"):
            build_config(minimal(mode=mode))


def test_baseless_modes_need_no_alpha():
    for mode in ("ail", "sac", "bc"):
        cfg = build_config(minimal(mode=mode))
        assert cfg.alpha is None


def test_eval_only_base_mode_is_not_trainable():
    with pytest.raises(ConfigError, match="unknown mode 'bet'"):
        build_config(minimal(mode="bet"))


def test_typed_records_share_no_list_with_the_resolved_config():
    cfg = build_config(minimal(mode="ail"))
    before = cfg.hash
    cfg.train.policy_hidden.append(8)
    cfg.train.sac.hidden.append(8)
    assert cfg.hash == before


def test_needs_bet():
    assert build_config(minimal(mode="betail", alpha=0.1)).needs_bet()
    assert build_config(minimal(mode="betsac", alpha=0.1)).needs_bet()
    assert not build_config(minimal(mode="ail")).needs_bet()
    assert not build_config(minimal(mode="bcail", alpha=0.1)).needs_bet()


# ------------------------------------------------------------------ defaults


def test_pretrain_tracks_default_to_finetune_track():
    cfg = build_config(minimal())
    assert cfg.pretrain_track_specs == [cfg.track_spec]
    # A copy, not an alias.
    assert cfg.pretrain_track_specs[0] is not cfg.track_spec


def test_pretrain_demo_laps_default_to_demo_laps():
    cfg = build_config(minimal(demos={"laps": 5}))
    assert cfg.demo_laps_pretrain == 5
    cfg = build_config(minimal(demos={"laps": 5, "laps_pretrain": 3}))
    assert cfg.demo_laps_pretrain == 3


def test_mode_and_alpha_are_set_at_the_root_only():
    cfg = build_config(minimal(mode="betail", alpha=0.2))
    assert (cfg.mode, cfg.alpha) == ("betail", 0.2)
    assert not hasattr(cfg.train, "mode") and not hasattr(cfg.train, "alpha")
    for key in ("mode", "alpha"):
        with pytest.raises(ConfigError, match=f"unknown config key 'train.{key}'"):
            build_config(minimal(mode="betail", alpha=0.2, train={key: "betail"}))


def test_bet_widths_follow_the_episode():
    cfg = build_config(minimal(episode={"curvature_count": 8}))
    assert cfg.bet.obs_dim == obs_dim(cfg.episode) == 48
    assert cfg.bet.act_dim == 2
    assert "obs_dim" not in cfg.resolved["bet"]


# ------------------------------------------------------------------- hashing


def test_hash_is_short_hex():
    h = build_config(minimal()).hash
    assert len(h) == 16
    int(h, 16)


def test_hash_deterministic_across_builds():
    assert build_config(minimal()).hash == build_config(minimal()).hash


def test_hash_ignores_output_location():
    a = build_config(minimal(out="/tmp/run_a"))
    b = build_config(minimal(out="/tmp/run_b"))
    assert a.hash == b.hash


def test_hash_sensitive_to_seed_and_mode():
    base = build_config(minimal()).hash
    assert build_config(minimal(seed=1)).hash != base
    assert build_config(minimal(mode="sac")).hash != base


def test_hash_property_matches_function():
    cfg = build_config(minimal())
    assert cfg.hash == config_hash(cfg.resolved)


def test_build_does_not_mutate_user_dict():
    user = minimal(train={"iterations": 3})
    snapshot = {"mode": user["mode"], "train": dict(user["train"])}
    build_config(user)
    assert user["mode"] == snapshot["mode"]
    assert user["train"] == snapshot["train"]


def _every_config():
    """Every profile x challenge (or a plain course) x train mode, with and without out."""
    for profile in PROFILES:
        for challenge in [*sorted(CHALLENGES), None]:
            course = {"challenge": challenge} if challenge else {
                "track": {"preset": "oval"}, "alpha": 0.3}
            for mode in TRAIN_MODES:
                for out in (None, "somewhere"):
                    yield {"profile": profile, "mode": mode, "out": out, **course}


def test_a_recorded_config_rebuilds_the_same_run():
    # A bundle records cfg.resolved as JSON; eval and report rebuild from it.
    for doc in _every_config():
        cfg = build_config(doc)
        again = build_config(json.loads(json.dumps(cfg.resolved)))
        assert again.resolved == cfg.resolved, doc
        assert (again.hash, again.stage_hash, again.run_hash) == \
            (cfg.hash, cfg.stage_hash, cfg.run_hash), doc


def test_run_key_ignores_only_the_stopping_rules():
    base = build_config(minimal())
    stopped = build_config(minimal(out="elsewhere", train={"iterations": 7, "eval_every": 3}))
    assert stopped.run_hash == base.run_hash and stopped.hash != base.hash
    assert base.run_difference(stopped.resolved) is None
    lr = build_config(minimal(train={"sac": {"lr": 0.5}}))
    assert lr.run_hash != base.run_hash
    assert base.run_difference(lr.resolved) == ("train.sac.lr", 0.5, base.train.sac.lr)
    assert base.run_difference(build_config(minimal(seed=4, mode="sac")).resolved) == \
        ("mode", "sac", "ail")
