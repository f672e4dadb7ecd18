"""Masked-autoencoder ViT: patch tokenization, random masking, asymmetric
encoder/decoder, masked-patch reconstruction loss.

The encoder embeds only visible patches (plus a CLS token) and runs
pre-norm transformer blocks:

    z' = MHSA(LN(z)) + z
    z  = FFN(LN(z')) + z'

followed by a final LayerNorm.  Each half of a block is one engine op:
``tensors.attention_sublayer`` (LN, qkv projection, self-attention,
output projection, residual add) and ``tensors.ffn_sublayer`` (LN,
fc1 -> GELU -> fc2, residual add).  Neither keeps a LayerNorm output
or a pre-residual output for backward.  The decoder projects the latent
to its own width, fills masked positions with one shared learnable mask
token, adds its own positional table and runs a shallower stack;
``decode`` returns that stack's output.  A linear head predicts raw
patch values from it, and the loss is the mean over masked patches of
the squared L2 patch error.  Head and loss are one engine op,
``tensors.masked_mse_head``, which runs the head on the masked rows
only, so visible positions and the CLS row contribute exactly zero.
``forward_loss`` stacks the batch's visible and masked patch indices
once and passes both arrays to the encoder, decoder and loss; it
gathers the visible inputs and the masked targets and drops the full
patch array before the encoder runs.  Every mask has masked patches
(``sample_mask`` rejects an empty one), and truncated-normal tables
and tokens start at std ``TRUNC_NORMAL_STD``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensors as T


VARIANTS = {
    "tiny": (6, 192, 3),
    "small": (8, 384, 6),
    "base": (12, 768, 12),
    "large": (24, 1024, 16),
}


class ModelError(ValueError):
    """Invalid model configuration or mask plan."""


TRUNC_NORMAL_STD = 0.02  # positional tables, CLS and mask tokens


@dataclass
class ModelConfig:
    variant: str = "small"
    enc_layers: int = 0  # 0 -> fill from variant
    enc_dim: int = 0
    enc_heads: int = 0
    dec_layers: int = 4
    dec_dim: int = 512
    dec_heads: int = 8
    patch_time: int = 30
    patch_freq: int = 3
    mask_ratio: float = 0.8
    ffn_expansion: int = 4
    input_time: int = 600
    input_chan: int = 90

    def __post_init__(self):
        if self.variant in VARIANTS:
            layers, dim, heads = VARIANTS[self.variant]
            self.enc_layers = self.enc_layers or layers
            self.enc_dim = self.enc_dim or dim
            self.enc_heads = self.enc_heads or heads
        elif self.variant != "custom":
            raise ModelError(f"unknown variant {self.variant!r}")
        if not (self.enc_layers and self.enc_dim and self.enc_heads):
            raise ModelError("custom variant needs enc_layers/enc_dim/enc_heads")
        if self.enc_dim % self.enc_heads:
            raise ModelError(f"enc_dim {self.enc_dim} not divisible by {self.enc_heads} heads")
        if self.dec_dim % self.dec_heads:
            raise ModelError(f"dec_dim {self.dec_dim} not divisible by {self.dec_heads} heads")
        if self.input_time % self.patch_time or self.input_chan % self.patch_freq:
            raise ModelError(
                f"input {self.input_time}x{self.input_chan} not divisible by patch "
                f"({self.patch_time},{self.patch_freq})"
            )
        if not 0.0 < self.mask_ratio < 1.0:
            raise ModelError("mask_ratio must be in (0, 1)")

    @property
    def n_patches(self) -> int:
        return (self.input_time // self.patch_time) * (self.input_chan // self.patch_freq)

    @property
    def patch_len(self) -> int:
        return self.patch_time * self.patch_freq

    @property
    def n_masked(self) -> int:
        return int(math.floor(self.mask_ratio * self.n_patches))

    @property
    def n_visible(self) -> int:
        return self.n_patches - self.n_masked

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(d: dict) -> "ModelConfig":
        return ModelConfig(**d)


@dataclass
class MaskPlan:
    """Per-clip partition of patch indices into visible and masked sets."""

    visible_idx: np.ndarray
    masked_idx: np.ndarray


def sample_mask(n_patches: int, ratio: float, seed) -> MaskPlan:
    """Uniform sample without replacement of floor(ratio * n_patches) patches."""
    n_masked = int(math.floor(ratio * n_patches))
    if n_masked <= 0 or n_masked >= n_patches:
        raise ModelError(f"degenerate mask: {n_masked} of {n_patches} patches masked")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_patches)
    return MaskPlan(visible_idx=np.sort(perm[n_masked:]), masked_idx=np.sort(perm[:n_masked]))


def patchify(clip: np.ndarray, patch_time: int, patch_freq: int) -> np.ndarray:
    """(…, T, C) -> (…, N_p, patch_time*patch_freq), time-major patch order."""
    *lead, t_len, c_len = clip.shape
    if t_len % patch_time or c_len % patch_freq:
        raise ModelError(f"clip {clip.shape} not divisible by patch ({patch_time},{patch_freq})")
    nt, nc = t_len // patch_time, c_len // patch_freq
    x = clip.reshape(*lead, nt, patch_time, nc, patch_freq)
    x = np.moveaxis(x, -3, -2)  # (…, nt, nc, patch_time, patch_freq)
    return x.reshape(*lead, nt * nc, patch_time * patch_freq)


# ---------------------------------------------------------------------
# parameters


def trunc_normal(rng, shape):
    """Normal(0, ``TRUNC_NORMAL_STD``) resampled until everything lies within 2 std."""
    x = rng.standard_normal(shape) * TRUNC_NORMAL_STD
    while True:
        bad = np.abs(x) > 2 * TRUNC_NORMAL_STD
        if not bad.any():
            return x
        x[bad] = rng.standard_normal(int(bad.sum())) * TRUNC_NORMAL_STD


def linear_layout(name: str, fan_in: int, fan_out: int) -> list:
    """Layout entries of one ``linear`` layer: weight (fan_in, fan_out), then bias."""
    return [(f"{name}.w", (fan_in, fan_out), "uniform"), (f"{name}.b", (fan_out,), "zeros")]


def param_layout(cfg: ModelConfig) -> list:
    """``(name, shape, init)`` of every parameter, in the order ``init_params`` draws them.

    Names are the stable checkpoint keys.  ``init`` is "uniform"
    (U(-1/sqrt(fan_in), 1/sqrt(fan_in)), fan_in = shape[0]),
    "trunc_normal", "zeros" or "ones".
    """
    out = []

    def norm(name, dim):
        out.extend([(f"{name}.g", (dim,), "ones"), (f"{name}.b", (dim,), "zeros")])

    def block(prefix, dim):
        norm(f"{prefix}.ln1", dim)
        norm(f"{prefix}.ln2", dim)
        out.extend(linear_layout(f"{prefix}.attn.qkv", dim, 3 * dim))
        out.extend(linear_layout(f"{prefix}.attn.proj", dim, dim))
        out.extend(linear_layout(f"{prefix}.ffn.fc1", dim, cfg.ffn_expansion * dim))
        out.extend(linear_layout(f"{prefix}.ffn.fc2", cfg.ffn_expansion * dim, dim))

    out.extend(linear_layout("enc.embed", cfg.patch_len, cfg.enc_dim))
    out.append(("enc.pos", (cfg.n_patches, cfg.enc_dim), "trunc_normal"))
    out.append(("enc.cls", (1, 1, cfg.enc_dim), "trunc_normal"))
    for i in range(cfg.enc_layers):
        block(f"enc.blocks.{i}", cfg.enc_dim)
    norm("enc.norm", cfg.enc_dim)
    out.extend(linear_layout("dec.proj", cfg.enc_dim, cfg.dec_dim))
    out.append(("dec.mask_token", (1, 1, cfg.dec_dim), "trunc_normal"))
    out.append(("dec.pos", (cfg.n_patches, cfg.dec_dim), "trunc_normal"))
    for i in range(cfg.dec_layers):
        block(f"dec.blocks.{i}", cfg.dec_dim)
    out.extend(linear_layout("dec.head", cfg.dec_dim, cfg.patch_len))
    return out


def init_layout(layout, seed, dtype=np.float32) -> dict:
    """Trainable tensors for ``layout``, drawn in its order from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, init in layout:
        if init == "uniform":
            limit = 1.0 / math.sqrt(shape[0])
            arr = rng.uniform(-limit, limit, shape)
        elif init == "trunc_normal":
            arr = trunc_normal(rng, shape)
        else:
            arr = np.ones(shape) if init == "ones" else np.zeros(shape)
        params[name] = T.Tensor(arr.astype(dtype), requires_grad=True)
    return params


def init_params(cfg: ModelConfig, seed=0, dtype=np.float32) -> dict:
    """Named parameter tensors of the model, initialised from ``seed``."""
    return init_layout(param_layout(cfg), seed, dtype)


# ---------------------------------------------------------------------
# forward graph


def _attention(x: T.Tensor, params: dict, prefix: str, n_heads: int) -> T.Tensor:
    """The block's first half, x + MHSA(LN1(x)), as one ``tensors.attention_sublayer`` node."""
    p = lambda name: params[f"{prefix}.{name}"]
    return T.attention_sublayer(
        x, p("ln1.g"), p("ln1.b"), p("attn.qkv.w"), p("attn.qkv.b"), p("attn.proj.w"), p("attn.proj.b"), n_heads
    )


def _block(x: T.Tensor, params: dict, prefix: str, n_heads: int) -> T.Tensor:
    """One pre-norm block: ``_attention``, then x + FFN(LN2(x)) as one ``tensors.ffn_sublayer`` node."""
    x = _attention(x, params, prefix, n_heads)
    p = lambda name: params[f"{prefix}.{name}"]
    return T.ffn_sublayer(x, p("ln2.g"), p("ln2.b"), p("ffn.fc1.w"), p("ffn.fc1.b"), p("ffn.fc2.w"), p("ffn.fc2.b"))


def _batch_indices(plans, attr) -> np.ndarray:
    idx = np.stack([getattr(p, attr) for p in plans])
    return idx.astype(np.intp)


class MaskedAutoencoder:
    """Config + named parameters + the forward graphs built on them."""

    def __init__(self, cfg: ModelConfig, params: dict | None = None, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.params = params if params is not None else init_params(cfg, seed=seed, dtype=dtype)

    def encode(self, visible_tokens: T.Tensor, visible_idx: np.ndarray) -> T.Tensor:
        """Embed visible tokens, add positions, prepend CLS, run the blocks.

        ``visible_tokens`` is (B, V, patch_len); ``visible_idx`` (B, V)
        holds each token's original patch position.  Output is
        (B, 1+V, enc_dim) after the final LayerNorm.
        """
        p, cfg = self.params, self.cfg
        b, v, _ = visible_tokens.shape
        x = T.linear(visible_tokens, p["enc.embed.w"], p["enc.embed.b"])
        x = T.add(x, T.gather_rows(p["enc.pos"], visible_idx))
        zeros = T.Tensor(np.zeros((b, 1, cfg.enc_dim), dtype=x.data.dtype))
        cls = T.add(zeros, p["enc.cls"])
        x = T.concat([cls, x], axis=1)
        for i in range(cfg.enc_layers):
            x = _block(x, p, f"enc.blocks.{i}", cfg.enc_heads)
        return T.layer_norm(x, p["enc.norm.g"], p["enc.norm.b"])

    def _decoder_tokens(self, latent: T.Tensor, vis_idx: np.ndarray, masked_idx: np.ndarray) -> T.Tensor:
        """Pre-block decoder input: projected latent, mask tokens at ``masked_idx``, positions."""
        p = self.params
        b, n_masked = masked_idx.shape
        d = T.linear(latent, p["dec.proj.w"], p["dec.proj.b"])
        cls, vis = d[:, :1, :], d[:, 1:, :]
        zeros = T.Tensor(np.zeros((b, n_masked, self.cfg.dec_dim), dtype=latent.data.dtype))
        masked = T.add(zeros, p["dec.mask_token"])
        inv = np.argsort(np.concatenate([vis_idx, masked_idx], axis=1), axis=1)
        tokens = T.add(T.gather_tokens(T.concat([vis, masked], axis=1), inv), p["dec.pos"])
        return T.concat([cls, tokens], axis=1)

    def decode(self, latent: T.Tensor, vis_idx: np.ndarray, masked_idx: np.ndarray) -> T.Tensor:
        """Latent (B, 1+V, D) -> decoder output (B, 1+N_p, dec_dim), before the head.

        ``vis_idx`` (B, V) and ``masked_idx`` (B, M) are each clip's
        visible and masked patch positions, ``_batch_indices`` of its plans.
        """
        x = self._decoder_tokens(latent, vis_idx, masked_idx)
        for i in range(self.cfg.dec_layers):
            x = _block(x, self.params, f"dec.blocks.{i}", self.cfg.dec_heads)
        return x

    def forward_loss(self, clips: np.ndarray, plans) -> tuple:
        """Clips (B, T, C) + per-clip plans -> (masked-patch loss, decoder output).

        The visible inputs and the masked targets are gathered first and
        the full (B, N_p, patch_len) patch copy is released before the
        encoder runs.
        """
        cfg = self.cfg
        patches = patchify(clips, cfg.patch_time, cfg.patch_freq)
        vis_idx, masked_idx = _batch_indices(plans, "visible_idx"), _batch_indices(plans, "masked_idx")
        visible, targets = gather_patches(patches, vis_idx), gather_patches(patches, masked_idx)
        del patches
        latent = self.encode(T.Tensor(visible), vis_idx)
        x = self.decode(latent, vis_idx, masked_idx)
        return mae_loss(x, self.params, targets, masked_idx), x

    def encode_features(self, clips: np.ndarray) -> T.Tensor:
        """Full (unmasked) token sequence through the encoder; CLS row out."""
        cfg = self.cfg
        patches = patchify(clips, cfg.patch_time, cfg.patch_freq)
        n = patches.shape[0]
        vis_idx = np.tile(np.arange(cfg.n_patches), (n, 1))
        latent = self.encode(T.Tensor(patches), vis_idx)
        return latent[:, 0, :]


def gather_patches(patches: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``patches[i, idx[i]]`` for every clip i: (B, K, patch_len)."""
    return patches[np.arange(patches.shape[0])[:, None], idx]


def mae_loss(x: T.Tensor, params: dict, targets: np.ndarray, masked_idx: np.ndarray) -> T.Tensor:
    """Mean over masked patches of the squared L2 patch error.

    ``x`` is the decoder output (B, 1+N_p, dec_dim), CLS row first,
    ``masked_idx`` (B, M) each clip's masked patch positions and
    ``targets`` those patches, ``gather_patches(patches, masked_idx)``.
    The head ``dec.head`` runs on the masked rows only and each masked
    patch contributes the sum of its squared entry errors; visible patches
    are never read, so perturbing them changes nothing, bit for bit.
    """
    if masked_idx.shape[1] == 0:
        raise ModelError("mae_loss: empty masked set")
    return T.masked_mse_head(x, params["dec.head.w"], params["dec.head.b"], masked_idx + 1, targets)
