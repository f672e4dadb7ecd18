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
to its own width; one engine op, ``tensors.decoder_tokens``, then fills
masked positions with one shared learnable mask token (He et al. 2021,
arXiv:2111.06377) and adds the decoder's own positional table, giving
the CLS row and then one token per patch position.  The decoder runs a
shallower stack on them; ``decode`` returns that stack's output.  A linear head
predicts raw patch values from it, and the loss is the mean over masked
patches of the squared L2 patch error.  Head and loss are one engine op,
``tensors.masked_mse_head``, which runs the head on the masked rows
only, so visible positions and the CLS row contribute exactly zero.
``forward_loss`` stacks the batch's visible and masked patch indices
once and passes both arrays to the encoder, decoder and loss.

Patches are read one way, by ``ClipRows.patch_reader``: one fancy index
on a reshaped view of a clip array.  A batch is a ``ClipRows``, rows of
a clip array read where they lie (a plain (B, T, C) array stands for all
its rows), so ``forward_loss`` copies no batch and the loss reads its
masked targets a row block at a time; ``encode_features`` reads every
patch position in order.

No mask is empty: ``ModelConfig`` and ``sample_mask`` refuse a ratio
that masks no patch.  Truncated-normal tables and tokens start at std
``TRUNC_NORMAL_STD``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import data as D
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

# integer size fields and their least values: a decoder may have no blocks
_SIZE_FLOORS = dict.fromkeys(("enc_layers", "enc_dim", "enc_heads", "dec_dim", "dec_heads", "patch_time", "patch_freq"), 1)
_SIZE_FLOORS |= {"dec_layers": 0, "ffn_expansion": 1, "input_time": 1, "input_chan": 1}


@dataclass(frozen=True)
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
    input_time: int = D.CLIP_TIME_LEN
    input_chan: int = D.CLIP_CHAN_LEN

    def __post_init__(self):
        if self.variant in VARIANTS:
            for name, value in zip(("enc_layers", "enc_dim", "enc_heads"), VARIANTS[self.variant]):
                object.__setattr__(self, name, getattr(self, name) or value)
        elif self.variant != "custom":
            raise ModelError(f"unknown variant {self.variant!r}")
        sizes = {name: getattr(self, name) for name in _SIZE_FLOORS}
        bad = [f"{name}={v!r}" for name, v in sizes.items() if type(v) is not int or v < _SIZE_FLOORS[name]]
        if bad:
            raise ModelError(f"model sizes must be positive integers (dec_layers may be 0), got {', '.join(bad)}")
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
        if self.n_masked < 1:
            raise ModelError(f"mask_ratio {self.mask_ratio} masks none of {self.n_patches} patches")

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ClipRows:
    """Rows ``rows`` of an (N, T, C) clip array, standing where the batch ``clips[rows]`` would.

    It has that batch's ``shape`` and ``len``, and slicing it slices
    ``rows``, but it copies no clip: ``patch_reader`` gathers patches
    from ``clips`` itself.  ``rows`` is a 1-D integer array of positions
    in ``range(N)``, repeats and any order allowed.
    """

    clips: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if self.clips.ndim != 3:
            raise ModelError(f"clips must be (N, T, C), got {self.clips.shape}")
        if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
            raise ModelError(f"rows must be a 1-D integer array, got {rows.dtype} {rows.shape}")
        if rows.size and not 0 <= rows.min() <= rows.max() < len(self.clips):
            raise ModelError(f"rows must lie in [0, {len(self.clips)}), got {rows.min()}..{rows.max()}")
        object.__setattr__(self, "rows", rows.astype(np.intp, copy=False))

    @property
    def shape(self) -> tuple:
        return (len(self.rows),) + self.clips.shape[1:]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, key: slice) -> "ClipRows":
        return ClipRows(self.clips, self.rows[key])

    def patch_reader(self, idx: np.ndarray, cfg: ModelConfig):
        """``read(sl)``: rows ``sl`` (a slice) of the (B·K, patch_len) patches that ``idx`` (B, K) names in each clip.

        The model's one patch layout: ``cfg`` cuts an (input_time,
        input_chan) clip into nt × nc patches of patch_time × patch_freq,
        numbered time-major, and row ``i·K + j`` is patch ``idx[i, j]`` of
        clip ``rows[i]``; ``read()`` returns all of them.  Each call is one
        fancy index on an (N, nt, patch_time, nc, patch_freq) view of
        ``clips``, so neither the batch nor its full patch array is ever
        copied.  Clips not of ``cfg``'s input shape raise ``ModelError``.
        """
        n, t_len, c_len = self.clips.shape
        if (t_len, c_len) != (cfg.input_time, cfg.input_chan):
            raise ModelError(f"clips {self.shape} are not the model's {cfg.input_time}x{cfg.input_chan} input")
        if idx.shape[0] != len(self.rows):
            raise ModelError(f"{len(self.rows)} clips but {idx.shape[0]} rows of patch indices")
        nc = c_len // cfg.patch_freq
        view = self.clips.reshape(n, t_len // cfg.patch_time, cfg.patch_time, nc, cfg.patch_freq)
        clip = np.repeat(self.rows, idx.shape[1])
        t, c = np.divmod(idx.reshape(-1), nc)

        def read(sl: slice = slice(None)) -> np.ndarray:
            return view[clip[sl], t[sl], :, c[sl], :].reshape(-1, cfg.patch_len)

        return read


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
        d = T.linear(latent, p["dec.proj.w"], p["dec.proj.b"])
        return T.decoder_tokens(d, p["dec.mask_token"], p["dec.pos"], vis_idx, masked_idx)

    def decode(self, latent: T.Tensor, vis_idx: np.ndarray, masked_idx: np.ndarray) -> T.Tensor:
        """Latent (B, 1+V, D) -> decoder output (B, 1+N_p, dec_dim), before the head.

        ``vis_idx`` (B, V) and ``masked_idx`` (B, M) are each clip's
        visible and masked patch positions, ``_batch_indices`` of its plans.
        """
        x = self._decoder_tokens(latent, vis_idx, masked_idx)
        for i in range(self.cfg.dec_layers):
            x = _block(x, self.params, f"dec.blocks.{i}", self.cfg.dec_heads)
        return x

    def forward_loss(self, clips, plans) -> tuple:
        """A batch + per-clip plans -> (masked-patch loss, decoder output).

        ``clips`` is a ``ClipRows`` or a (B, T, C) array, which stands
        for the ``ClipRows`` of all its rows; either way ``shape[0]`` is
        the batch's clip count.  The visible inputs are gathered straight
        from the clip array, and the loss reads the masked targets from it
        a row block at a time, so the step copies neither the batch, nor
        its full (B, N_p, patch_len) patch array, nor its targets.
        """
        cfg = self.cfg
        batch = clips if isinstance(clips, ClipRows) else ClipRows(clips, np.arange(len(clips)))
        vis_idx, masked_idx = _batch_indices(plans, "visible_idx"), _batch_indices(plans, "masked_idx")
        visible = batch.patch_reader(vis_idx, cfg)()
        latent = self.encode(T.Tensor(visible.reshape(*vis_idx.shape, -1)), vis_idx)
        x = self.decode(latent, vis_idx, masked_idx)
        return mae_loss(x, self.params, batch.patch_reader(masked_idx, cfg), masked_idx), x

    def encode_features(self, clips: np.ndarray) -> T.Tensor:
        """Full (unmasked) token sequence of (n, T, C) ``clips`` through the encoder; CLS row out."""
        n, cfg = len(clips), self.cfg
        vis_idx = np.tile(np.arange(cfg.n_patches), (n, 1))
        patches = ClipRows(clips, np.arange(n)).patch_reader(vis_idx, cfg)()
        latent = self.encode(T.Tensor(patches.reshape(n, cfg.n_patches, -1)), vis_idx)
        return latent[:, 0, :]


def mae_loss(x: T.Tensor, params: dict, targets, masked_idx: np.ndarray) -> T.Tensor:
    """Mean over masked patches of the squared L2 patch error.

    ``x`` is the decoder output (B, 1+N_p, dec_dim), CLS row first,
    ``masked_idx`` (B, M) each clip's masked patch positions and
    ``targets`` a reader of those patches: ``read(sl)`` gives rows ``sl``
    of their (B·M, patch_len) matrix, as ``ClipRows.patch_reader`` does.
    The head ``dec.head`` runs on the masked rows only and each masked
    patch contributes the sum of its squared entry errors; visible
    patches are never read, so perturbing them changes nothing, bit for
    bit.  An empty masked set raises ``tensors.ShapeError``.
    """
    return T.masked_mse_head(x, params["dec.head.w"], params["dec.head.b"], masked_idx + 1, targets)
