"""Configuration resolution: schema strictness, layering, and hashing."""

import json

import pytest

from racelab import cli
from racelab.config import (
    CHALLENGES,
    PROFILES,
    _AT_LEAST,
    _POSITIVE,
    ConfigError,
    _base_defaults,
    build_config,
    config_hash,
)
from racelab.env import obs_dim
from racelab.policies import MODE_SPECS


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


def _put(doc, path, value):
    """doc with value at a dotted path, making the tables on the way."""
    *tables, key = path.split(".")
    table = doc
    for name in tables:
        table = table.setdefault(name, {})
    table[key] = value
    return doc


# Keys that no code read, that took one value only, or that repeated what
# the episode fixes; each with the value it used to default to.
REMOVED_KEYS = {
    "episode.train_steps": 500,
    "episode.eval_steps": 5000,
    "episode.n_cars": 20,
    "episode.progress_weight": 0.01,
    "train.progress_weight": 0.01,
    "train.sac.auto_entropy": False,
    "train.sac.entropy_lr": 3e-4,
    "bet.nonlinearity": "relu",
    "bet.loss_positions": "all",
    "bet.obs_dim": 50,
    "bet.act_dim": 2,
}


@pytest.mark.parametrize("path", sorted(REMOVED_KEYS))
def test_removed_key_is_rejected_by_path(path, tmp_path, capsys):
    doc = _put({}, path, REMOVED_KEYS[path])
    with pytest.raises(ConfigError, match=f"unknown config key '{path}'"):
        build_config(minimal(**doc))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(minimal(**doc)))
    out = tmp_path / "run"
    argv = ["gen-track", "--config", str(cfg), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"unknown config key '{path}'" in capsys.readouterr().err
    assert not out.exists()


# Values the trainer cannot run with, each named by the error: as
# (dotted path, value, the start of what the error says about it).
BAD_VALUES = [
    ("train.n_cars", 0, "config field 'train.n_cars' must be an integer >= 1, got 0"),
    ("train.rollout_steps", 0, "config field 'train.rollout_steps' must be an integer >= 1, got 0"),
    ("train.disc_updates", 0, "config field 'train.disc_updates' must be an integer >= 1, got 0"),
    ("train.demo_batch", 0, "config field 'train.demo_batch' must be an integer >= 1, got 0"),
    ("train.eval_cars", 0, "config field 'train.eval_cars' must be an integer >= 1, got 0"),
    ("train.sac.batch", 0, "config field 'train.sac.batch' must be an integer >= 1, got 0"),
    ("train.replay_capacity", 10, "invalid 'train' config: replay_capacity must be >= sac.batch"),
    ("train.eval_max_steps", 1,
     "config field 'train.eval_max_steps' must be an integer >= 2, got 1"),
    ("train.iterations", 0, "config field 'train.iterations' must be an integer >= 1, got 0"),
    ("train.iterations", -1, "config field 'train.iterations' must be an integer >= 1, got -1"),
    ("train.sac.gradient_steps", -1,
     "config field 'train.sac.gradient_steps' must be an integer >= 0, got -1"),
    ("bet.embed_dim", 0, "config field 'bet.embed_dim' must be an integer >= 1, got 0"),
    ("bet.embed_dim", -4, "config field 'bet.embed_dim' must be an integer >= 1, got -4"),
    ("bet.n_layers", -1, "config field 'bet.n_layers' must be an integer >= 1, got -1"),
    ("bet.n_heads", 0, "config field 'bet.n_heads' must be an integer >= 1, got 0"),
    ("bet.mlp_ratio", 0, "config field 'bet.mlp_ratio' must be an integer >= 1, got 0"),
    ("bet.mlp_ratio", -1, "config field 'bet.mlp_ratio' must be an integer >= 1, got -1"),
    ("bet.updates", 0, "config field 'bet.updates' must be an integer >= 1, got 0"),
    ("bet.batch_size", 0, "config field 'bet.batch_size' must be an integer >= 1, got 0"),
    ("bet.eval_context", 0, "config field 'bet.eval_context' must be an integer >= 1, got 0"),
    ("bet.dropout", 1.0, "invalid 'bet' config: dropout must be in [0, 1)"),
    ("bet.dropout", 0.999999, "invalid 'bet' config: dropout must be in [0, 1) at 16-bit"),
    ("demos.laps", 0, "config field 'demos.laps' must be an integer >= 1"),
    ("demos.laps_pretrain", 0, "config field 'demos.laps_pretrain' must be an integer >= 1"),
    ("bc.updates", 0, "config field 'bc.updates' must be an integer >= 1"),
    ("bc.batch", 0, "config field 'bc.batch' must be an integer >= 1"),
    ("seed", -1, "config field 'seed' must be an integer >= 0, got -1"),
    ("demos.seed", -1, "config field 'demos.seed' must be an integer >= 0, got -1"),
    ("expert.preview_points", 0, "config field 'expert.preview_points' must be an integer >= 1"),
    ("episode.dt", 0, "config field 'episode.dt' must be a number > 0, got 0"),
    ("vehicle.wheelbase", 0, "config field 'vehicle.wheelbase' must be a number > 0, got 0"),
    ("vehicle.max_steer", 0, "config field 'vehicle.max_steer' must be a number > 0, got 0"),
    ("vehicle.a_max", 0, "config field 'vehicle.a_max' must be a number > 0, got 0"),
    ("vehicle.v_cap", 0, "config field 'vehicle.v_cap' must be a number > 0, got 0"),
    ("vehicle.grip_limit", 0, "config field 'vehicle.grip_limit' must be a number > 0, got 0"),
    ("expert.v_max", 0, "config field 'expert.v_max' must be a number > 0, got 0"),
    ("expert.speed_scale", 0, "config field 'expert.speed_scale' must be a number > 0, got 0"),
    ("expert.corner_accel", 0, "config field 'expert.corner_accel' must be a number > 0, got 0"),
    ("expert.throttle_gain", 0, "config field 'expert.throttle_gain' must be a number > 0, got 0"),
    ("expert.steer_smooth", 0, "config field 'expert.steer_smooth' must be a number > 0, got 0"),
    ("episode.curvature_count", -1,
     "config field 'episode.curvature_count' must be an integer >= 0, got -1"),
    ("episode.lookahead_count", -1,
     "config field 'episode.lookahead_count' must be an integer >= 0, got -1"),
    ("train.eval_every", -1, "config field 'train.eval_every' must be an integer >= 0, got -1"),
    ("alpha", 2.0, "config field 'alpha' must be a number in (0, 1]"),
    ("alpha", 0.0, "config field 'alpha' must be a number in (0, 1]"),
    ("alpha", "0.1", "config field 'alpha' must be a number in (0, 1]"),
    ("bet.lr", "x", "config field 'bet.lr' must be a number >= 0, got 'x'"),
    ("bet.weight_decay", "x", "config field 'bet.weight_decay' must be a number >= 0, got 'x'"),
    ("train.disc_lr", "x", "config field 'train.disc_lr' must be a number >= 0, got 'x'"),
    ("train.sac.lr", -1, "config field 'train.sac.lr' must be a number >= 0, got -1"),
    ("train.sac.hidden", "ab",
     "config field 'train.sac.hidden' must be a list of integers >= 1, got 'ab'"),
    ("train.policy_hidden", [0],
     "config field 'train.policy_hidden' must be a list of integers >= 1, got [0]"),
    ("bc.lr", "x", "config field 'bc.lr' must be a number >= 0, got 'x'"),
    ("bc.lr", -1, "config field 'bc.lr' must be a number >= 0, got -1"),
    ("bc.hidden", [0], "config field 'bc.hidden' must be a list of integers >= 1, got [0]"),
    ("bc.hidden", "ab", "config field 'bc.hidden' must be a list of integers >= 1, got 'ab'"),
    ("vehicle.wheelbase", "x", "config field 'vehicle.wheelbase' must be a number > 0, got 'x'"),
    ("expert.v_max", "x", "config field 'expert.v_max' must be a number > 0, got 'x'"),
]


@pytest.mark.parametrize("path, value, message", BAD_VALUES,
                         ids=[f"{path}={value!r}" for path, value, _ in BAD_VALUES])
def test_bad_value_is_rejected_by_path(path, value, message, tmp_path, capsys):
    doc = _put(minimal(mode="betail", alpha=0.1), path, value)
    with pytest.raises(ConfigError) as info:
        build_config(doc)
    assert str(info.value).startswith(message)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def _numeric_leaves(tree, prefix=""):
    """(dotted path, default) of each numeric leaf of the schema, and of
    each leaf that _AT_LEAST bounds but that has no default of its own."""
    for key, value in tree.items():
        where = prefix + key
        if isinstance(value, dict):
            yield from _numeric_leaves(value, where + ".")
        elif isinstance(value, (int, float)) or where in _AT_LEAST:
            yield where, value


NUMERIC_LEAVES = list(_numeric_leaves(_base_defaults()))


@pytest.mark.parametrize("path, default", NUMERIC_LEAVES, ids=[p for p, _ in NUMERIC_LEAVES])
def test_every_numeric_field_is_refused_just_below_its_bound(path, default):
    # So a field added to the schema is bounded without a row of its own:
    # an integer just below its floor, a float that must be > 0 at 0, and
    # any other float at -1.
    if isinstance(default, float):
        value = 0.0 if path in _POSITIVE else -1.0
    else:
        value = _AT_LEAST.get(path, 0) - 1
    with pytest.raises(ConfigError) as info:
        build_config(_put(minimal(mode="betail", alpha=0.1), path, value))
    assert str(info.value).startswith(f"config field '{path}' must be ")


def test_scalar_cannot_replace_table():
    with pytest.raises(ConfigError, match="'bet' must be a table"):
        build_config(minimal(bet=7))


def test_typed_subconfig_errors_are_wrapped():
    # A structurally valid table whose values fail the dataclass's own
    # validation surfaces as a ConfigError naming the subtree.
    with pytest.raises(ConfigError, match="invalid 'bet' config"):
        build_config(minimal(bet={"embed_dim": 30, "n_heads": 4}))


def test_track_subtree_is_free_form():
    # Course generation parameters are preset-specific; the schema leaves
    # them to the generator's own check.
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
    for mode in ("betail", "bcail"):
        with pytest.raises(ConfigError, match=f"mode '{mode}' requires 'alpha'"):
            build_config(minimal(mode=mode))


def test_baseless_modes_need_no_alpha():
    for mode in ("ail", "bc"):
        cfg = build_config(minimal(mode=mode))
        assert cfg.alpha is None


@pytest.mark.parametrize("mode", ["sac", "betsac"])
def test_environment_reward_mode_is_not_a_mode(mode, tmp_path, capsys):
    # sac and betsac would train on an environment reward, which imitation
    # does not have.
    with pytest.raises(ConfigError, match=f"unknown mode '{mode}'"):
        build_config(minimal(mode=mode))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(minimal(mode=mode, alpha=0.1)))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"unknown mode '{mode}'" in capsys.readouterr().err
    assert not out.exists()


def test_typed_records_share_no_list_with_the_resolved_config():
    cfg = build_config(minimal(mode="ail"))
    before = cfg.hash
    cfg.train.policy_hidden.append(8)
    cfg.train.sac.hidden.append(8)
    assert cfg.hash == before


def test_needs_bet():
    assert build_config(minimal(mode="betail", alpha=0.1)).needs_bet()
    assert build_config(minimal(mode="bet")).needs_bet()
    assert not build_config(minimal(mode="ail")).needs_bet()
    assert not build_config(minimal(mode="bcail", alpha=0.1)).needs_bet()


# ------------------------------------------------------------------ defaults


def test_settable_value_count_is_pinned():
    # A new knob must show up here, and so in the change log; the course
    # subtrees count one each.
    def leaves(tree):
        return sum(leaves(v) if isinstance(v, dict) else 1 for v in tree.values())

    assert leaves(_base_defaults()) == 74


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
    assert build_config(minimal(mode="bc")).hash != base


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
    """Every profile x challenge (or a plain course) x mode, with and without out."""
    for profile in PROFILES:
        for challenge in [*sorted(CHALLENGES), None]:
            course = {"challenge": challenge} if challenge else {
                "track": {"preset": "oval"}, "alpha": 0.3}
            for mode in MODE_SPECS:
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
    assert base.run_difference(build_config(minimal(seed=4, mode="bc")).resolved) == \
        ("mode", "bc", "ail")


# One config field changed against minimal(), and the modes that read it:
# exactly those whose run key the change moves. Every mode reads
# train.eval_cars, so a new mode fails the test below until it is added.
RUN_KEY_READERS = [
    ("bc.lr", {"bc": {"lr": 0.5}}, {"bc", "bcail"}),
    ("alpha", {"alpha": 0.3}, {"betail", "bcail"}),
    ("train.sac.lr", {"train": {"sac": {"lr": 0.5}}}, {"betail", "ail", "bcail"}),
    ("train.n_cars", {"train": {"n_cars": 3}}, {"betail", "ail", "bcail"}),
    ("train.policy_hidden", {"train": {"policy_hidden": [8]}}, {"betail", "ail", "bcail"}),
    ("train.eval_cars", {"train": {"eval_cars": 3}}, {"betail", "ail", "bc", "bcail", "bet"}),
    ("train.eval_max_steps", {"train": {"eval_max_steps": 9}},
     {"betail", "ail", "bc", "bcail", "bet"}),
]


@pytest.mark.parametrize("mode", list(MODE_SPECS))
def test_run_key_leaves_out_what_the_mode_does_not_read(mode):
    base = build_config(minimal(mode=mode, alpha=0.2))
    for key, change, readers in RUN_KEY_READERS:
        other = build_config(minimal(mode=mode, **{"alpha": 0.2, **change}))
        assert other.hash != base.hash, key
        difference = base.run_difference(other.resolved)
        if mode in readers:
            assert other.run_hash != base.run_hash and difference[0] == key, key
        else:
            assert other.run_hash == base.run_hash and difference is None, key
    # A run of another mode differs first at the mode.
    for other in MODE_SPECS.keys() - {mode}:
        recorded = build_config(minimal(mode=other, alpha=0.2)).resolved
        assert base.run_difference(recorded) == ("mode", other, mode)
