"""Experiment configuration: strict schema, profiles, and challenge presets.

A run is fully determined by one JSON document. Loading resolves it in
three layers — profile defaults, then an optional challenge preset, then
the user's overrides — and rejects any key the schema does not know,
naming the offending path. Each value has one owner: the BeT's input
and output widths follow from the episode's feature counts and are
derived, not set. So does the bound of each numeric leaf: one walk of
the schema (_check_kinds) checks every leaf's kind and bound, which is
>= 0 unless _AT_LEAST or _POSITIVE names the leaf. alpha, which only a
residual mode needs, is checked against (0, 1] on its own. The typed
configs check only the relations between their fields and the dropout
rate's 16-bit resolution. The resolved document is canonicalized and
hashed so every output artifact can be traced to its exact inputs.

Profiles: ``desk`` (default; minutes-scale budgets), ``paper`` (the
full-scale hyperparameters), ``smoke`` (seconds-scale end-to-end check).

Challenge presets name the three training layouts: ``maggiore-like``
(pretrain and fine-tune on the same course, alpha 0.05),
``dragontail-like`` (pretrain on one course, fine-tune on another,
alpha 0.10), ``panorama-like`` (pretrain on several courses, fine-tune
on an unseen one, alpha 0.2).
"""

import copy
import dataclasses
import hashlib
import json

from .ail import TrainConfig
from .bet import BeTConfig
from .env import EpisodeConfig, obs_dim
from .expert import ExpertParams
from .policies import MODE_SPECS
from .track import gen_track
from .vehicle import VehicleParams

CONTENT_VERSION = 1
PROFILES = ("desk", "paper", "smoke")


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 1."""


def _base_defaults():
    # One JSON round trip turns tuple defaults into the lists that a
    # recorded config holds, so the two compare equal.
    return json.loads(json.dumps({
        "mode": None,
        "profile": "desk",
        "seed": 0,
        "challenge": None,
        "alpha": None,
        "out": None,
        "track": None,
        "pretrain_tracks": None,
        "demos": {"laps": 8, "laps_pretrain": None, "seed": 0},
        "vehicle": dataclasses.asdict(VehicleParams()),
        "episode": dataclasses.asdict(EpisodeConfig()),
        "expert": dataclasses.asdict(ExpertParams()),
        # The episode fixes the BeT's widths; build_config fills them in.
        "bet": {k: v for k, v in dataclasses.asdict(BeTConfig()).items()
                if k not in ("obs_dim", "act_dim")},
        "bc": {"hidden": [256, 256], "updates": 2000, "batch": 256, "lr": 1e-3},
        "train": dataclasses.asdict(TrainConfig()),
    }))


_PROFILE_OVERRIDES = {
    "desk": {},
    "paper": {
        "bet": {"embed_dim": 512, "n_layers": 4, "n_heads": 8, "batch_size": 256,
                "updates": 500_000, "stop_loss": 0.0},
        "train": {
            "replay_capacity": 1_000_000,
            "demo_batch": 2000,
            "iterations": 800,
            "sac": {"batch": 4096, "gradient_steps": 2500},
        },
    },
    "smoke": {
        "demos": {"laps": 2},
        "bet": {"embed_dim": 32, "n_layers": 2, "n_heads": 2, "context": 8,
                "eval_context": 4, "batch_size": 16, "updates": 150, "stop_loss": 0.0},
        "bc": {"hidden": [32, 32], "updates": 200, "batch": 128},
        "train": {
            "n_cars": 4,
            "rollout_steps": 100,
            "iterations": 5,
            "replay_capacity": 20_000,
            "disc_updates": 8,
            "demo_batch": 128,
            "policy_hidden": [64, 64],
            "eval_every": 2,
            "eval_cars": 4,
            "eval_max_steps": 800,
            "sac": {"hidden": [64, 64], "batch": 256, "gradient_steps": 20},
        },
    },
}

# The three training layouts: base-policy course(s), fine-tune course,
# correction scale. Course seeds are desk-tuned, not meaningful.
CHALLENGES = {
    # Fine-tune on the pretraining course itself: small corrections only.
    "maggiore-like": {
        "alpha": 0.05,
        "track": {"preset": "random", "seed": 7},
        "pretrain_tracks": [{"preset": "random", "seed": 7}],
    },
    # Transfer to a much twistier course the base has never seen.
    "dragontail-like": {
        "alpha": 0.10,
        "track": {"preset": "random", "seed": 21, "roughness": 0.5, "radius": 120},
        "pretrain_tracks": [{"preset": "random", "seed": 7}],
    },
    # Multi-course pretraining, then transfer with a large correction.
    "panorama-like": {
        "alpha": 0.2,
        "track": {"preset": "random", "seed": 29, "roughness": 0.5, "radius": 110},
        "pretrain_tracks": [
            {"preset": "random", "seed": 7},
            {"preset": "random", "seed": 11},
            {"preset": "random", "seed": 13},
        ],
    },
}

# Subtrees whose keys the schema does not enumerate: course generation
# parameters vary by preset, and build_config checks them by generating
# the course.
_FREE_SUBTREES = ("track", "pretrain_tracks")


def _merge(base, override, path=()):
    """Deep-merge override into base, rejecting keys absent from base and
    a value that is not a table where base holds one."""
    for key, value in override.items():
        where = ".".join(path + (key,))
        if key not in base:
            raise ConfigError(f"unknown config key '{where}'")
        if key in _FREE_SUBTREES and not path:
            base[key] = copy.deepcopy(value)
        elif isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{where}' must be a table")
            _merge(base[key], value, path + (key,))
        else:
            base[key] = copy.deepcopy(value)
    return base


# Layer widths, the list values of the schema.
_WIDTHS = ("bc.hidden", "train.policy_hidden", "train.sac.hidden")

# The integers whose floor is above 0: sizes that a stage cannot run with
# at 0, and an evaluation's step limit, which needs two steps to score the
# steering.
_AT_LEAST = {**dict.fromkeys((
    "demos.laps", "demos.laps_pretrain", "expert.preview_points", "bc.updates", "bc.batch",
    "bet.embed_dim", "bet.n_layers", "bet.n_heads", "bet.eval_context", "bet.mlp_ratio",
    "bet.batch_size", "bet.updates", "train.n_cars", "train.rollout_steps",
    "train.iterations", "train.disc_updates", "train.demo_batch", "train.eval_cars",
    "train.sac.batch"), 1), "train.eval_max_steps": 2}

# The floats that must be > 0: at 0 no car moves or steers, and a
# demonstration lap never finishes.
_POSITIVE = ("episode.dt", "vehicle.wheelbase", "vehicle.max_steer", "vehicle.a_max",
             "vehicle.v_cap", "vehicle.grip_limit", "expert.v_max", "expert.speed_scale",
             "expert.corner_accel", "expert.throttle_gain", "expert.steer_smooth")


def _check_kinds(defaults, tree, prefix=""):
    """Refuse a value of another kind than its schema default, or outside
    its bound; the one owner of the bounds of the numeric leaves. An
    integer where the default is one or _AT_LEAST names the field, >= its
    _AT_LEAST floor or else >= 0; a number that is not a bool where the
    default is a float, > 0 where _POSITIVE names the field and else >= 0;
    for the layer widths, a list of integers >= 1."""
    for key, default in defaults.items():
        where, value = prefix + key, tree[key]
        if isinstance(default, dict):
            _check_kinds(default, value, where + ".")
        elif where in _WIDTHS:
            if not isinstance(value, list) or not all(
                    isinstance(w, int) and not isinstance(w, bool) and w >= 1 for w in value):
                raise ConfigError(f"config field '{where}' must be a list of integers >= 1, "
                                  f"got {value!r}")
        elif isinstance(default, int) or where in _AT_LEAST:
            low = _AT_LEAST.get(where, 0)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"config field '{where}' must be an integer >= {low}, "
                                  f"got {value!r}")
        elif isinstance(default, float):
            positive = where in _POSITIVE
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
                    value > 0 if positive else value >= 0):
                raise ConfigError(f"config field '{where}' must be a number "
                                  f"{'>' if positive else '>='} 0, got {value!r}")


def config_hash(resolved):
    """Content hash of a resolved config; the output location is excluded
    so the same experiment hashes identically wherever it is written."""
    content = {k: v for k, v in resolved.items() if k != "out"}
    canon = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# Fields no stage product reads, so runs that differ only in them share
# one course, one demonstration set and one sequence base. A run's key
# takes each of them only when its mode reads it (_reads).
_TRAINING_ONLY = ("mode", "alpha", "train", "bc")

# What a resumed run may change: its output location, and the training
# fields that decide only when it stops, not what any iteration computes.
_RESUMABLE = ("out", "train.iterations", "train.eval_every")


def _reads(spec, key):
    """Whether a run of the mode that MODE_SPECS row spec describes reads
    the config leaf at a dotted key, outside its stopping rules: the bc
    table only with a bc base, alpha only with a base and a correction
    head, and of train, without a correction head, only the size of its
    one evaluation."""
    if key in _RESUMABLE:
        return False
    if key.startswith("bc."):
        return spec["base"] == "bc"
    if key == "alpha":
        return spec["base"] is not None and spec["residual"]
    if key.startswith("train."):
        return spec["residual"] or key in ("train.eval_cars", "train.eval_max_steps")
    return True


def _run_fields(tree, spec, prefix=""):
    """Dotted key -> value of every config leaf that a run of the mode
    that spec describes reads and a resumed run keeps."""
    fields = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            fields.update(_run_fields(value, spec, f"{prefix}{key}."))
        elif _reads(spec, prefix + key):
            fields[prefix + key] = value
    return fields


@dataclasses.dataclass
class ExperimentConfig:
    """Fully resolved, typed view of one run's configuration."""

    resolved: dict
    mode: str
    profile: str
    seed: int
    alpha: float
    out: str
    track_spec: dict
    pretrain_track_specs: list
    demo_laps: int
    demo_laps_pretrain: int
    demo_seed: int
    vehicle: VehicleParams
    episode: EpisodeConfig
    expert: ExpertParams
    bet: BeTConfig
    bc: dict
    train: TrainConfig

    @property
    def hash(self):
        return config_hash(self.resolved)

    @property
    def stage_hash(self):
        """Hash of what the course, demonstrations and sequence base depend
        on: the config without the fields that only training reads."""
        return config_hash({k: v for k, v in self.resolved.items() if k not in _TRAINING_ONLY})

    @property
    def run_hash(self):
        """Hash of what a run's products depend on: the config fields that
        its mode reads, without its output location and stopping rules, so
        a longer budget keeps it."""
        return config_hash(_run_fields(self.resolved, MODE_SPECS[self.mode]))

    def run_difference(self, recorded):
        """(dotted key, recorded value, own value) at the first key, the
        mode first and then in sorted order, where a recorded resolved
        config differs from this one in a field that this config's mode
        reads; None when it may resume. A recorded run of another mode
        differs at the mode."""
        spec = MODE_SPECS[self.mode]
        own, was = _run_fields(self.resolved, spec), _run_fields(recorded, spec)
        keys = sorted(own.keys() | was.keys(), key=lambda key: (key != "mode", key))
        return next(((key, was.get(key), own.get(key)) for key in keys
                     if own.get(key) != was.get(key)), None)

    def needs_bet(self):
        return MODE_SPECS[self.mode]["base"] == "bet"


def _typed(cls, d, where):
    """cls built from a resolved subtree; a copy, so the record shares no
    list with the resolved config it is hashed from."""
    try:
        return cls(**copy.deepcopy(d))
    except TypeError as exc:
        raise ConfigError(f"invalid '{where}' config: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid '{where}' config: {exc}") from None


def build_config(user):
    """Resolve a raw config dict into an ExperimentConfig.

    Raises ConfigError on unknown keys, bad profile or challenge names,
    missing mode/track, a course table that gen_track would refuse, a
    residual mode without alpha, an alpha outside (0, 1], a value of
    another kind than its default or outside its bound (_check_kinds), or
    a relation between fields that a typed config refuses.
    """
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    profile = user.get("profile", "desk")
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile '{profile}' (choose from {'/'.join(PROFILES)})")
    resolved = _merge(_base_defaults(), _PROFILE_OVERRIDES[profile])
    resolved["profile"] = profile
    challenge = user.get("challenge")
    if challenge is not None:
        if challenge not in CHALLENGES:
            raise ConfigError(
                f"unknown challenge '{challenge}' (choose from {'/'.join(sorted(CHALLENGES))})"
            )
        resolved = _merge(resolved, CHALLENGES[challenge])
        resolved["challenge"] = challenge
    resolved = _merge(resolved, user)

    mode = resolved["mode"]
    if mode is None:
        raise ConfigError("config field 'mode' is required")
    if mode not in MODE_SPECS:
        raise ConfigError(f"unknown mode '{mode}' (choose from {'/'.join(MODE_SPECS)})")
    if resolved["track"] is None:
        raise ConfigError("config field 'track' is required (or pick a challenge)")
    spec = MODE_SPECS[mode]
    alpha = resolved["alpha"]
    if spec["residual"] and spec["base"] is not None and alpha is None:
        raise ConfigError(f"mode '{mode}' requires 'alpha'")
    if alpha is not None and (isinstance(alpha, bool) or not isinstance(alpha, (int, float))
                              or not 0.0 < alpha <= 1.0):
        raise ConfigError(f"config field 'alpha' must be a number in (0, 1], got {alpha!r}")
    if resolved["pretrain_tracks"] is None:
        resolved["pretrain_tracks"] = [copy.deepcopy(resolved["track"])]
    courses = resolved["pretrain_tracks"]
    if not isinstance(courses, list) or not courses:
        raise ConfigError("config field 'pretrain_tracks' must be a non-empty list of tables")
    for where, spec in [("track", resolved["track"])] + [
            (f"pretrain_tracks[{i}]", spec) for i, spec in enumerate(courses)]:
        if not isinstance(spec, dict):
            raise ConfigError(f"config field '{where}' must be a table")
        try:
            gen_track(**{"preset": None, **spec})
        except ValueError as exc:
            raise ConfigError(f"invalid '{where}' config: {exc}") from None
    demos = resolved["demos"]
    if demos["laps_pretrain"] is None:
        demos["laps_pretrain"] = demos["laps"]
    _check_kinds(_base_defaults(), resolved)

    episode = _typed(EpisodeConfig, resolved["episode"], "episode")
    bet_d = {**resolved["bet"], "obs_dim": obs_dim(episode), "act_dim": 2}
    return ExperimentConfig(
        resolved=resolved,
        mode=mode,
        profile=profile,
        seed=int(resolved["seed"]),
        alpha=alpha,
        out=resolved["out"],
        track_spec=resolved["track"],
        pretrain_track_specs=resolved["pretrain_tracks"],
        demo_laps=int(demos["laps"]),
        demo_laps_pretrain=int(demos["laps_pretrain"]),
        demo_seed=int(demos["seed"]),
        vehicle=_typed(VehicleParams, resolved["vehicle"], "vehicle"),
        episode=episode,
        expert=_typed(ExpertParams, resolved["expert"], "expert"),
        bet=_typed(BeTConfig, bet_d, "bet"),
        bc=copy.deepcopy(resolved["bc"]),
        train=_typed(TrainConfig, resolved["train"], "train"),
    )
