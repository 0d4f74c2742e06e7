"""Adversarial fine-tuning of the correction head over a frozen base.

The training loop alternates strictly: collect one fixed-length
multi-car rollout with the sampling stack, append it to the replay ring,
take a block of discriminator steps (expert pairs vs replayed agent
pairs), then a block of actor-critic steps. Replayed transitions carry
no reward: every sampled batch recomputes its rewards from the current
discriminator, so no stale reward is ever trusted.

Checkpoint bundles are directories of tensor checkpoints plus a JSON
manifest; together with the pure per-iteration seed streams they make a
resumed run bit-identical to an uninterrupted one.
"""

import dataclasses
import json
import os
import shutil

import numpy as np

from . import autodiff as ad
from . import evaluate as eval_mod
from . import nets
from .env import Normalizer, RaceEnv, rollout
from .optim import Adam
from .policies import BASES, MODE_SPECS, GaussianPolicy, build_policy_stack, load_base, save_base
from .seeding import stream

BUNDLE_FORMAT = "racelab-bundle-v6"
REWARD_EPS = 1e-6
DISC_HIDDEN = (32, 32)


def _f32(x):
    return np.asarray(x, dtype=np.float32)


def _sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


# ---------------------------------------------------------------------------
# Discriminator

def make_discriminator(obs_dim, act_dim, rng):
    """Pair classifier (normalized obs, env action) -> logit."""
    dims = [obs_dim + act_dim] + list(DISC_HIDDEN) + [1]
    acts = ["tanh"] * len(DISC_HIDDEN) + ["identity"]
    return nets.MLP(dims, acts, rng, name="disc")


def disc_input(obs_n, a_env):
    return np.concatenate([_f32(obs_n), _f32(a_env)], axis=1)


def ail_reward(disc, obs_n, a_env):
    """Proxy reward -log(1 - D) with D clamped to [eps, 1-eps]; >= 0."""
    logit = disc.predict(disc_input(obs_n, a_env))[:, 0]
    d = np.clip(_sigmoid_np(logit), REWARD_EPS, 1.0 - REWARD_EPS)
    return (-np.log1p(-d)).astype(np.float32)


def disc_update(disc, opt, expert_x, agent_x, rng, gp_scale, gp_target, entropy_scale):
    """One classifier step: two-sided cross-entropy, input-gradient norm
    penalty on per-row interpolates, and an output-entropy bonus.

    expert_x / agent_x are (N, obs+act) float32 pair batches. Returns the
    loss terms and mean classifier outputs for both sides. The three
    scales are TrainConfig's gp_scale, gp_target and entropy_scale.
    """
    if len(expert_x) == 0 or len(agent_x) == 0:
        raise ValueError("empty discriminator batch")
    params = disc.params()
    ad.zero_grads(params.values())
    l_e = disc(ad.tensor(_f32(expert_x)))
    l_a = disc(ad.tensor(_f32(agent_x)))
    bce = ad.add(
        ad.bce_with_logits(l_e, ad.tensor(np.ones_like(l_e.data))),
        ad.bce_with_logits(l_a, ad.tensor(np.zeros_like(l_a.data))),
    )
    loss = bce
    ent_val = 0.0
    if entropy_scale:
        both = ad.concat([l_e, l_a], axis=0)
        d = ad.sigmoid(both)
        # H(D) = D*softplus(-l) + (1-D)*softplus(l); the bonus maximizes it.
        h = ad.add(
            ad.mul(d, ad.softplus(ad.neg(both))),
            ad.mul(ad.shift(ad.neg(d), 1.0), ad.softplus(both)),
        )
        h_mean = ad.mean_all(h)
        ent_val = float(h_mean.data)
        loss = ad.add(loss, ad.scale(h_mean, -entropy_scale))
    gp_val = 0.0
    if gp_scale:
        m = min(len(expert_x), len(agent_x))
        u = rng.random((m, 1), dtype=np.float32)
        x_hat = u * _f32(expert_x[:m]) + (1.0 - u) * _f32(agent_x[:m])
        gp = nets.gradient_penalty(disc, x_hat, gp_target)
        gp_val = float(gp.data)
        loss = ad.add(loss, ad.scale(gp, gp_scale))
    ad.backward(loss)
    opt.step()
    return {
        "loss": float(loss.data),
        "bce": float(bce.data),
        "gp": gp_val,
        "entropy": ent_val,
        "d_expert": float(np.mean(_sigmoid_np(l_e.data))),
        "d_agent": float(np.mean(_sigmoid_np(l_a.data))),
    }


# ---------------------------------------------------------------------------
# Replay

class ReplayBuffer:
    """FIFO transition ring; it never stores rewards.

    Columns per row: augmented input, scaled correction, successor
    augmented input, env action; the two actions are two wide. The
    augmented input starts with the whitened observation, which
    ``obs_of`` reads from there. Rollouts never end an episode, so every
    transition bootstraps and no mask is stored.
    """

    def __init__(self, capacity, aug_dim, obs_dim):
        self.capacity = int(capacity)
        self.aug_dim = int(aug_dim)
        self.obs_dim = int(obs_dim)
        edges = np.cumsum([0, aug_dim, 2, aug_dim, 2])
        names = ["aug", "res", "aug_next", "a_env"]
        self._cols = {n: slice(int(a), int(b)) for n, a, b in zip(names, edges[:-1], edges[1:])}
        self._data = np.zeros((self.capacity, int(edges[-1])), dtype=np.float32)
        self._n = 0
        self._head = 0  # next write position == oldest row when full

    def __len__(self):
        return self._n

    def push(self, trans):
        """Append a batch of transitions (dict of (N, width) arrays).

        Each column block is written in place into at most two row ranges
        of the ring: from the head to the end, then from the start. Row i
        of the batch lands at (head + i) % capacity, so of a batch larger
        than the ring only its last capacity rows are kept.
        """
        n = len(trans["aug"])
        skip = max(n - self.capacity, 0)
        start = (self._head + skip) % self.capacity
        first = min(n - skip, self.capacity - start)
        for name, sl in self._cols.items():
            col = trans[name]
            self._data[start : start + first, sl] = col[skip : skip + first]
            self._data[: n - skip - first, sl] = col[skip + first :]
        self._head = int((self._head + n) % self.capacity)
        self._n = int(min(self._n + n, self.capacity))

    def sample(self, batch, rng):
        """Uniform sample without rewards; dict of copied columns."""
        if self._n == 0:
            raise ValueError("empty replay buffer")
        idx = rng.integers(0, self._n, size=batch)
        rows = self._data[idx]
        return {name: rows[:, sl] for name, sl in self._cols.items()}

    def obs_of(self, rows):
        """Whitened observations of sampled rows: the first obs_dim columns
        of their augmented input."""
        return rows["aug"][:, : self.obs_dim]

    def state_arrays(self):
        """The filled rows, as a view of the ring (not a copy)."""
        return {"data": self._data[: self._n]}

    def state_meta(self):
        return {"head": self._head, "n": self._n, "capacity": self.capacity}

    def load_state(self, path):
        """Fill the ring from a replay checkpoint that save_bundle wrote.

        The stored rows are read straight into the ring, in place. A file
        whose ring capacity, row width or row count does not fit this
        ring is refused with CheckpointError before any row is read.
        """
        def into(meta, shapes):
            n, head, capacity = (meta.get(key) for key in ("n", "head", "capacity"))
            stored = shapes.get("data")
            fits = (stored is not None and all(isinstance(v, int) for v in (n, head, capacity))
                    and (capacity, *stored[1:]) == self._data.shape and stored[0] == n
                    and 0 <= n <= capacity and 0 <= head < capacity)
            if not fits:
                raise nets.CheckpointError(
                    f"{path} holds a replay of shape {stored} in a ring of {capacity} rows, "
                    f"which does not fit this run's ring of shape {self._data.shape}")
            return {"data": self._data[:n]}

        meta, _ = nets.load_params(path, into)
        self._n = int(meta["n"])
        self._head = int(meta["head"])


def replay_sample_recompute(replay, disc, batch, rng):
    """Sample uniformly and attach freshly recomputed proxy rewards."""
    rows = replay.sample(batch, rng)
    rows["reward"] = ail_reward(disc, replay.obs_of(rows), rows["a_env"])
    return rows


# ---------------------------------------------------------------------------
# Actor-critic

@dataclasses.dataclass
class SACConfig:
    hidden: tuple = (256, 256)
    lr: float = 3e-4
    batch: int = 1024
    gradient_steps: int = 250
    tau: float = 0.002
    gamma: float = 0.99
    entropy_temp: float = 0.01


def _make_q(in_dim, hidden, rng, name):
    dims = [in_dim] + list(hidden) + [1]
    acts = ["relu"] * len(hidden) + ["identity"]
    return nets.MLP(dims, acts, rng, name=name)


def _copy_net(src, name):
    dst = _make_q(src.dims[0], src.dims[1:-1], None, name)
    for (_, p_dst), (_, p_src) in zip(dst.params().items(), src.params().items()):
        p_dst.data[...] = p_src.data
    return dst


def _critic_step(q, opt, x, y):
    """One regression step of a critic toward the targets y; returns its
    loss. The step's tape is dropped on return, before the next step."""
    ad.zero_grads(q.params().values())
    loss = ad.mse(q(ad.tensor(x)), ad.tensor(y))
    ad.backward(loss)
    opt.step()
    return float(loss.data)


def polyak_update(target_params, online_params, tau):
    """theta_t <- (1 - tau) theta_t + tau theta; matched by position."""
    for p_t, p_o in zip(target_params.values(), online_params.values()):
        p_t.data *= 1.0 - tau
        p_t.data += tau * p_o.data


class SACTrainer:
    """Twin-critic soft actor-critic over the correction head.

    Targets are computed without the tape; critic and actor updates run
    on it. The entropy temperature is the fixed ``entropy_temp``.
    """

    def __init__(self, policy: GaussianPolicy, aug_dim, cfg: SACConfig, rng):
        self.policy = policy
        self.cfg = cfg
        in_dim = aug_dim + policy.act_dim
        self.q1 = _make_q(in_dim, cfg.hidden, rng, "q1")
        self.q2 = _make_q(in_dim, cfg.hidden, rng, "q2")
        self.q1_t = _copy_net(self.q1, "q1_t")
        self.q2_t = _copy_net(self.q2, "q2_t")
        self.opt_q1 = Adam(self.q1.params(), cfg.lr)
        self.opt_q2 = Adam(self.q2.params(), cfg.lr)
        self.opt_pi = Adam(policy.params(), cfg.lr)

    def update(self, batch, rng):
        """One gradient step on both critics and the actor."""
        cfg = self.cfg
        temp = cfg.entropy_temp
        s, a, s2, r = batch["aug"], batch["res"], batch["aug_next"], batch["reward"]

        eps2 = rng.standard_normal((len(s2), self.policy.act_dim), dtype=np.float32)
        with ad.no_grad():
            a2, logp2 = self.policy.sample_taped(ad.tensor(s2), eps2)
        x2 = np.concatenate([s2, a2.data], axis=1)
        q_next = np.minimum(self.q1_t.predict(x2)[:, 0], self.q2_t.predict(x2)[:, 0])
        y = (r + cfg.gamma * (q_next - temp * logp2.data[:, 0])).astype(np.float32)[:, None]

        x = np.concatenate([s, a], axis=1)
        q_losses = [_critic_step(q, opt, x, y)
                    for q, opt in ((self.q1, self.opt_q1), (self.q2, self.opt_q2))]

        eps = rng.standard_normal((len(s), self.policy.act_dim), dtype=np.float32)
        ad.zero_grads(self.policy.params().values())
        # The actor loss holds the critics fixed: no critic weight gradient.
        with nets.frozen([*self.q1.params().values(), *self.q2.params().values()]):
            s_t = ad.tensor(s)
            a_t, logp_t = self.policy.sample_taped(s_t, eps)
            x_t = ad.concat([s_t, a_t], axis=-1)
            min_q = ad.minimum(self.q1(x_t), self.q2(x_t))
            actor_loss = ad.mean_all(ad.sub(ad.scale(logp_t, temp), min_q))
            ad.backward(actor_loss)
        self.opt_pi.step()

        polyak_update(self.q1_t.params(), self.q1.params(), cfg.tau)
        polyak_update(self.q2_t.params(), self.q2.params(), cfg.tau)
        return {
            "q1_loss": q_losses[0],
            "q2_loss": q_losses[1],
            "actor_loss": float(actor_loss.data),
            "mean_logp": float(np.mean(logp_t.data)),
            "mean_reward": float(np.mean(r)),
        }


# ---------------------------------------------------------------------------
# Training loop

@dataclasses.dataclass
class TrainConfig:
    """Knobs for one fine-tuning run (budgets, regularizer scales).

    It checks one relation: the replay holds at least one SAC batch. The
    run config checks each size and scale on its own.
    """

    n_cars: int = 20
    rollout_steps: int = 500
    iterations: int = 20
    replay_capacity: int = 200_000
    disc_updates: int = 32
    disc_lr: float = 0.005
    demo_batch: int = 500
    gp_scale: float = 10.0
    gp_target: float = 1.0
    entropy_scale: float = 0.001
    policy_hidden: tuple = (256, 256)
    sac: SACConfig = dataclasses.field(default_factory=SACConfig)
    eval_every: int = 5
    eval_cars: int = 20
    eval_max_steps: int = 5000

    def __post_init__(self):
        if isinstance(self.sac, dict):  # as a config document or a manifest holds it
            self.sac = SACConfig(**self.sac)
        if self.replay_capacity < self.sac.batch:
            raise ValueError(f"replay_capacity must be >= sac.batch ({self.sac.batch}), "
                             f"got {self.replay_capacity}")


class Trainer:
    """Owns the stack, environment, replay, classifier, and critics.

    All randomness is drawn from pure per-(phase, iteration) streams, so
    the object's complete state is its parameter arrays, optimizer
    moments, replay contents, and step counters — which is exactly what
    the checkpoint bundle stores.
    """

    def __init__(self, stack, track, vparams, ecfg, demos, cfg: TrainConfig, seed):
        if stack.residual is None:
            raise ValueError(f"mode '{stack.mode}' has no online training loop")
        self.stack = stack
        self.track = track
        self.demos = demos
        self.cfg = cfg
        self.seed = int(seed)
        self.env = RaceEnv(track, vparams, ecfg)
        self.speed_lookup = demos.speed_lookup(track.length)
        obs_dim = demos.obs_dim
        self.replay = ReplayBuffer(cfg.replay_capacity, stack.aug_dim, obs_dim)
        obs, act = demos.transitions()
        self._demo_x = disc_input(demos.normalizer.transform(obs), act)
        self.disc = make_discriminator(obs_dim, 2, stream(self.seed, "init", 2))
        self.opt_disc = Adam(self.disc.params(), cfg.disc_lr)
        self.sac = SACTrainer(stack.residual, stack.aug_dim, cfg.sac, stream(self.seed, "init", 1))
        self.env_steps = 0
        self.iteration_count = 0
        self.curve = []
        self.last_eval = None

    def _transitions(self, roll):
        """The rollout's transitions as (B*T, width) column blocks, car by
        car: views of the log, and one successor block."""
        aug = roll["aug"]
        b, t = aug.shape[:2]
        aug_next = np.empty_like(aug)
        aug_next[:, :-1] = aug[:, 1:]
        aug_next[:, -1] = self.stack.final_augmented(roll["obs"][:, -1])
        return {
            "aug": aug.reshape(b * t, -1),
            "res": roll["res"].reshape(b * t, -1),
            "aug_next": aug_next.reshape(b * t, -1),
            "a_env": roll["actions"].reshape(b * t, -1),
        }

    def _collect(self, it):
        """Roll the sampling stack out and push its transitions into the
        replay; returns the rollout's metrics. The log is dropped here,
        before the update blocks run."""
        cfg = self.cfg
        self.env.reset_eval(cfg.n_cars, stream(self.seed, "rollout", it), self.speed_lookup)
        self.stack.reset()
        roll = rollout(self.env, self.stack.train_policy(stream(self.seed, "policy", it)),
                       cfg.rollout_steps)
        self.replay.push(self._transitions(roll))
        self.env_steps += cfg.n_cars * cfg.rollout_steps
        return {
            "iteration": it,
            "env_steps": self.env_steps,
            "rollout_progress": float(roll["progress"].sum(axis=1).mean()),
            "wall_fraction": float((roll["wall"] > 0).mean()),
        }

    def iteration(self, it):
        """Collect -> classifier block -> actor-critic block; returns metrics."""
        cfg = self.cfg
        metrics = self._collect(it)
        dstats = []
        for j in range(cfg.disc_updates):
            rng_d = stream(self.seed, "disc", it, j)
            e_idx = rng_d.integers(0, len(self._demo_x), size=cfg.demo_batch)
            agent = self.replay.sample(cfg.demo_batch, rng_d)
            agent_x = disc_input(self.replay.obs_of(agent), agent["a_env"])
            dstats.append(disc_update(self.disc, self.opt_disc, self._demo_x[e_idx],
                                      agent_x, rng_d, cfg.gp_scale, cfg.gp_target,
                                      cfg.entropy_scale))
        metrics["disc"] = {k: float(np.mean([s[k] for s in dstats])) for k in dstats[0]}
        sstats = []
        if len(self.replay) < cfg.sac.batch:
            # Too few rows for one batch: the actor-critic block waits.
            metrics["sac_skipped"] = {"replay": len(self.replay), "batch": cfg.sac.batch}
        else:
            for g in range(cfg.sac.gradient_steps):
                rng_s = stream(self.seed, "sac", it, g)
                batch = replay_sample_recompute(self.replay, self.disc, cfg.sac.batch, rng_s)
                sstats.append(self.sac.update(batch, rng_s))
        if sstats:
            metrics["sac"] = {k: float(np.mean([s[k] for s in sstats])) for k in sstats[0]}
        self.iteration_count = it + 1
        return metrics

    def run(self, out_dir, on_metrics=None, extra_manifest=None):
        """Train to the configured iteration budget.

        Evaluates and writes a resumable bundle to ``out_dir/bundle`` every
        eval_every iterations and at the last one, so a finished run's
        record is its final bundle: counters, the training curve and the
        last evaluation.
        """
        cfg = self.cfg
        while self.iteration_count < cfg.iterations:
            it = self.iteration_count
            metrics = self.iteration(it)
            if (cfg.eval_every and (it + 1) % cfg.eval_every == 0) or it + 1 == cfg.iterations:
                report = eval_mod.evaluate(
                    self.stack, self.track, self.env.params, self.env.cfg, self.demos,
                    n_cars=cfg.eval_cars, max_steps=cfg.eval_max_steps,
                    seed=self.seed, tag=self.iteration_count)
                self.last_eval = report.to_dict()
                self.curve.append(report.curve_point(it + 1, self.env_steps))
                metrics["eval_success_rate"] = report.success_rate
                save_bundle(os.path.join(out_dir, "bundle"), self, extra_manifest)
            if on_metrics is not None:
                on_metrics(metrics)


# ---------------------------------------------------------------------------
# Checkpoint bundles

def _bundle_nets(trainer):
    """Bundle file -> (kind, net) for the critics and the classifier."""
    sac = trainer.sac
    return {"q1.ckpt": ("critic", sac.q1), "q2.ckpt": ("critic", sac.q2),
            "q1_target.ckpt": ("critic", sac.q1_t), "q2_target.ckpt": ("critic", sac.q2_t),
            "disc.ckpt": ("disc", trainer.disc)}


def _optimizers(trainer):
    """Group name in optim.ckpt -> optimizer."""
    sac = trainer.sac
    return {"pi": sac.opt_pi, "q1": sac.opt_q1, "q2": sac.opt_q2, "disc": trainer.opt_disc}


def _moments(trainer):
    """Tensor name in optim.ckpt, ``<group>.m.<name>`` or ``<group>.v.<name>``,
    -> the live moment buffer, which is written from and read into."""
    return {f"{group}.{moment}.{name}": buf for group, opt in _optimizers(trainer).items()
            for moment in ("m", "v") for name, buf in opt.state_dict()[moment].items()}


def recover_bundle(path):
    """Put back the bundle a save moved aside, when the save stopped before
    its new bundle took the old one's place. Only the holder of the run
    directory, the one that saves there next, may call it: a save in
    progress has its old bundle at ``path.old`` too."""
    if not os.path.exists(path) and os.path.isdir(path + ".old"):
        os.replace(path + ".old", path)


def has_bundle(path):
    """Whether a bundle directory with a manifest is at path."""
    return os.path.exists(os.path.join(path, "manifest.json"))


def read_manifest(path):
    """The manifest of the bundle directory at path; other formats, and a
    mode that this version does not know, are refused."""
    with open(os.path.join(path, "manifest.json"), "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise nets.CheckpointError(f"unreadable bundle manifest in {path}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != BUNDLE_FORMAT:
        raise nets.CheckpointError(f"not a {BUNDLE_FORMAT} checkpoint bundle: {path}")
    if manifest.get("mode") not in MODE_SPECS:
        raise nets.CheckpointError(f"{path}/manifest.json records mode {manifest.get('mode')!r}, "
                                   f"not one of {sorted(MODE_SPECS)}")
    return manifest


def save_bundle(path, trainer, extra_manifest=None):
    """Write a resumable checkpoint bundle directory.

    Contains every parameter set (frozen base included, so the policy is
    reconstructible from the bundle alone), optimizer moments, the
    replay ring, counters, and the training curve. The files go to a
    fresh ``path.tmp`` directory; the old bundle then moves to
    ``path.old``, the new one to path, and ``path.old`` is removed. A save
    that stops at any point leaves the old bundle or the new one at path,
    or, between the two moves, the old one at ``path.old``, which
    recover_bundle puts back; the next save does so first.
    """
    tmp, old = path + ".tmp", path + ".old"
    recover_bundle(path)
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    os.makedirs(tmp)
    stack = trainer.stack
    nets.save_params(os.path.join(tmp, "residual.ckpt"), stack.residual.params(),
                     {"kind": "residual", "alpha": stack.residual.alpha})
    for fname, (kind, net) in _bundle_nets(trainer).items():
        nets.save_params(os.path.join(tmp, fname), net.params(), {"kind": kind})
    kind = stack.spec["base"]
    if kind is not None:  # the stack holds its base as the attribute of that name
        save_base(os.path.join(tmp, BASES[kind]["file"]), kind, getattr(stack, kind),
                  stack.base_normalizer)
    steps = {group: opt.step_count for group, opt in _optimizers(trainer).items()}
    nets.save_params(os.path.join(tmp, "optim.ckpt"), _moments(trainer),
                     {"kind": "optim", "steps": steps})
    nets.save_params(os.path.join(tmp, "replay.ckpt"), trainer.replay.state_arrays(),
                     {"kind": "replay", **trainer.replay.state_meta()})
    manifest = {
        "format": BUNDLE_FORMAT,
        "mode": stack.mode,
        "alpha": stack.residual.alpha,
        "seed": trainer.seed,
        "iteration": trainer.iteration_count,
        "env_steps": trainer.env_steps,
        "config": dataclasses.asdict(trainer.cfg),
        "normalizer": stack.normalizer.to_dict(),
        "curve": trainer.curve,
        "last_eval": trainer.last_eval,
        **(extra_manifest or {}),
    }
    with open(os.path.join(tmp, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if os.path.exists(path):
        os.replace(path, old)
    os.replace(tmp, path)
    shutil.rmtree(old, ignore_errors=True)


def load_stack(path, manifest, hidden=None):
    """The policy stack a bundle stores: the base its mode names, read from
    that kind's file with the whitener the base was fitted with, its
    correction head and the target course's whitener.

    manifest is the bundle's, from read_manifest; hidden, when given,
    replaces the stored correction-head widths, which must match. Nothing
    else is read, so evaluating a bundle needs no critics, optimizer
    moments or replay.
    """
    normalizer = Normalizer.from_dict(manifest["normalizer"])
    kind = MODE_SPECS[manifest["mode"]]["base"]
    net, base_normalizer, _ = (None,) * 3 if kind is None else load_base(
        os.path.join(path, BASES[kind]["file"]), kind)

    if hidden is None:
        hidden = manifest["config"]["policy_hidden"]
    built = []

    def into(meta, shapes):
        alpha = meta.get("alpha")
        if not isinstance(alpha, float) or not 0.0 < alpha <= 1.0:
            raise nets.CheckpointError(f"{path}/residual.ckpt records alpha {alpha!r}, "
                                       "not a number in (0, 1]")
        built.append(build_policy_stack(manifest["mode"], normalizer, len(normalizer.mean),
                                        None, hidden, alpha=alpha, bet=net, bc=net,
                                        bet_normalizer=base_normalizer))
        return built[0].residual.params()

    nets.load_params(os.path.join(path, "residual.ckpt"), into)
    return built[0]


def load_bundle(path, track, vparams, ecfg, demos, cfg=None):
    """Rebuild a Trainer exactly as save_bundle left it.

    cfg, when given, replaces the stored training config — the sizes must
    match, but stopping-rule knobs (iteration budget, evaluation cadence)
    may differ, which is how a finished run is extended.
    """
    manifest = read_manifest(path)
    if cfg is None:
        cfg = TrainConfig(**manifest["config"])
    stack = load_stack(path, manifest, cfg.policy_hidden)
    trainer = Trainer(stack, track, vparams, ecfg, demos, cfg, manifest["seed"])
    for fname, (_, net) in _bundle_nets(trainer).items():
        nets.load_params(os.path.join(path, fname), lambda meta, shapes: net.params())
    optim_meta, _ = nets.load_params(os.path.join(path, "optim.ckpt"),
                                     lambda meta, shapes: _moments(trainer))
    for group, opt in _optimizers(trainer).items():
        opt.step_count = int(optim_meta["steps"][group])
    trainer.replay.load_state(os.path.join(path, "replay.ckpt"))
    trainer.env_steps = int(manifest["env_steps"])
    trainer.iteration_count = int(manifest["iteration"])
    trainer.curve = list(manifest["curve"])
    trainer.last_eval = manifest.get("last_eval")
    return trainer, manifest
