"""MAE model: tokenization, masking, encoder/decoder contracts, loss support."""

import json
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csimae import checkpoint as C
from csimae import mae as M
from csimae import tensors as T
from tensorfile import cut_points, with_metadata


def tiny_cfg(**kw):
    """Smallest end-to-end model: 6 patches, 2 enc layers, 1 dec layer."""
    defaults = dict(
        variant="custom",
        enc_layers=2,
        enc_dim=8,
        enc_heads=2,
        dec_layers=1,
        dec_dim=8,
        dec_heads=2,
        patch_time=2,
        patch_freq=2,
        mask_ratio=0.5,
        input_time=6,
        input_chan=4,
    )
    defaults.update(kw)
    return M.ModelConfig(**defaults)


def full_plan(n_patches):
    """No-mask plan: every patch visible."""
    return M.MaskPlan(visible_idx=np.arange(n_patches), masked_idx=np.empty(0, dtype=int))


def patchify(clip, patch_time, patch_freq):
    """(…, T, C) -> (…, N_p, patch_time*patch_freq), time-major patch order, as a copy.

    The oracle of ``ClipRows.patch_reader``'s layout, the one way ``src`` reads patches.
    """
    *lead, t_len, c_len = clip.shape
    nt, nc = t_len // patch_time, c_len // patch_freq
    x = clip.reshape(*lead, nt, patch_time, nc, patch_freq)
    return np.moveaxis(x, -3, -2).reshape(*lead, nt * nc, patch_time * patch_freq)


def unpatchify(tokens, patch_time, patch_freq, t_len, c_len):
    """Exact inverse of ``patchify``."""
    *lead, n_p, _ = tokens.shape
    nt, nc = t_len // patch_time, c_len // patch_freq
    x = tokens.reshape(*lead, nt, nc, patch_time, patch_freq)
    return np.moveaxis(x, -3, -2).reshape(*lead, t_len, c_len)


def gather_patches(patches, idx):
    """``patches[i, idx[i]]`` for every clip i: (B, K, patch_len)."""
    return patches[np.arange(patches.shape[0])[:, None], idx]


def patchify_then_gather(clips, idx, patch_time, patch_freq):
    """The copying path ``ClipRows.patch_reader`` replaces: the oracle it is checked against."""
    return gather_patches(patchify(clips, patch_time, patch_freq), idx)


def read_every_patch(clips, cfg):
    """(n, N_p, patch_len): every patch position of each clip in order, read by ``ClipRows.patch_reader``."""
    n = len(clips)
    read = M.ClipRows(clips, np.arange(n)).patch_reader(np.tile(np.arange(cfg.n_patches), (n, 1)), cfg)
    return read().reshape(n, cfg.n_patches, cfg.patch_len)


def grid_cfg(nt, nc, pt, pf):
    """A model config whose input is an nt × nc grid of pt × pf patches (two or more of them)."""
    return tiny_cfg(input_time=nt * pt, input_chan=nc * pf, patch_time=pt, patch_freq=pf)


def params_equal(a, b):
    return a.keys() == b.keys() and all(a[k].data.tobytes() == b[k].data.tobytes() for k in a)


def plans_for(cfg, n, seed=0):
    return [M.sample_mask(cfg.n_patches, cfg.mask_ratio, [seed, i]) for i in range(n)]


def test_patch_reader_default_layout_gives_600_tokens():
    clip = np.random.default_rng(0).standard_normal((600, 90)).astype(np.float32)
    (tokens,) = read_every_patch(clip[None], M.ModelConfig())
    assert tokens.shape == (600, 90)
    # first patch is rows 0..29 x cols 0..2
    np.testing.assert_array_equal(tokens[0], clip[:30, :3].reshape(-1))
    # patch order is time-major then channel
    np.testing.assert_array_equal(tokens[1], clip[:30, 3:6].reshape(-1))
    np.testing.assert_array_equal(tokens[30], clip[30:60, :3].reshape(-1))


def test_patchify_whole_clip_degenerate():
    clip = np.arange(600 * 90, dtype=np.float32).reshape(600, 90)
    tokens = patchify(clip, 600, 90)
    assert tokens.shape == (1, 600 * 90)


def test_unpatchify_inverts_the_patch_reader_bit_exactly():
    rng = np.random.default_rng(1)
    clip = rng.standard_normal((4, 600, 90)).astype(np.float32)
    for pt, pf in ((30, 3), (100, 15), (20, 9)):
        tokens = read_every_patch(clip, grid_cfg(600 // pt, 90 // pf, pt, pf))
        back = unpatchify(tokens, pt, pf, 600, 90)
        assert back.tobytes() == clip.tobytes()


@given(
    n=st.integers(1, 3),
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**16),
)
def test_unpatchify_inverts_the_patch_reader_over_random_grids(n, grid, seed):
    nt, nc, pt, pf = grid
    assume(nt * nc >= 2)  # a model masks one patch or more and keeps one visible
    clip = np.random.default_rng(seed).standard_normal((n, nt * pt, nc * pf)).astype(np.float32)
    tokens = read_every_patch(clip, grid_cfg(nt, nc, pt, pf))
    assert tokens.shape == (n, nt * nc, pt * pf)
    assert unpatchify(tokens, pt, pf, nt * pt, nc * pf).tobytes() == clip.tobytes()


@given(
    grid=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
    n=st.integers(1, 4),
    dtype=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
)
def test_clip_rows_gather_equals_patchify_then_gather_bitwise(grid, n, dtype, data):
    nt, nc, pt, pf = grid
    assume(nt * nc >= 2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    clips = rng.standard_normal((n, nt * pt, nc * pf)).astype(dtype)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)))  # repeats, any order
    idx = rng.integers(0, nt * nc, (len(rows), data.draw(st.integers(1, nt * nc))))
    want = patchify_then_gather(clips[rows], idx, pt, pf)
    read = M.ClipRows(clips, rows).patch_reader(idx, grid_cfg(nt, nc, pt, pf))
    got = read()
    assert got.dtype == dtype and got.shape == (idx.size, pt * pf)
    assert got.tobytes() == want.tobytes()
    lo = data.draw(st.integers(0, idx.size))
    hi = data.draw(st.integers(lo, idx.size))
    assert read(slice(lo, hi)).tobytes() == want.reshape(idx.size, -1)[lo:hi].tobytes()


def test_clip_rows_stand_where_the_copied_batch_stood():
    clips = np.zeros((5, 6, 4), dtype=np.float32)
    batch = M.ClipRows(clips, np.array([4, 0, 4]))
    assert batch.shape == (3, 6, 4) and len(batch) == 3
    part = batch[1:]
    assert isinstance(part, M.ClipRows) and part.clips is clips and part.rows.tolist() == [0, 4]


@pytest.mark.parametrize(
    "clips_shape, rows, match",
    [
        ((5, 6, 4), np.array([0, 5]), "lie in"),
        ((5, 6, 4), np.array([-1, 2]), "lie in"),
        ((5, 6, 4), np.array([[0, 1]]), "1-D integer"),
        ((5, 6, 4), np.array([0.0, 1.0]), "1-D integer"),
        ((5, 6, 4), np.array([True, False]), "1-D integer"),
        ((5, 24), np.array([0, 1]), "clips must be"),
    ],
    ids=["out-of-range", "negative", "2-d", "float", "bool", "clips-2d"],
)
def test_clip_rows_refuse_bad_rows(clips_shape, rows, match):
    with pytest.raises(M.ModelError, match=match):
        M.ClipRows(np.zeros(clips_shape, dtype=np.float32), rows)


def test_patch_reader_refuses_a_plan_count_unlike_the_clip_count():
    batch = M.ClipRows(np.zeros((5, 6, 4), dtype=np.float32), np.array([0, 1]))
    with pytest.raises(M.ModelError, match="2 clips but 3 rows"):
        batch.patch_reader(np.zeros((3, 2), dtype=np.intp), tiny_cfg())


@pytest.mark.parametrize("shape", [(2, 6, 8), (2, 8, 4), (2, 12, 8)])
def test_patch_reader_refuses_clips_unlike_the_models_input(shape):
    # each is divisible by the 2 x 2 patch and holds the 6 patches the model names, so only the shape check refuses it
    clips = np.zeros(shape, dtype=np.float32)
    with pytest.raises(M.ModelError, match="not the model's 6x4 input"):
        M.ClipRows(clips, np.array([0, 1])).patch_reader(np.zeros((2, 3), dtype=np.intp), tiny_cfg())
    model = M.MaskedAutoencoder(tiny_cfg(), seed=0)
    with pytest.raises(M.ModelError, match="not the model's 6x4 input"):
        model.forward_loss(clips, plans_for(model.cfg, 2))
    with pytest.raises(M.ModelError, match="not the model's 6x4 input"):
        model.encode_features(clips)


@given(n_patches=st.integers(2, 700), ratio=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_sample_mask_is_a_partition_with_floor_ratio_masked(n_patches, ratio, seed):
    n_masked = int(np.floor(ratio * n_patches))
    if not 0 < n_masked < n_patches:
        with pytest.raises(M.ModelError, match="degenerate"):
            M.sample_mask(n_patches, ratio, seed)
        return
    plan = M.sample_mask(n_patches, ratio, seed)
    assert len(plan.masked_idx) == n_masked and len(plan.visible_idx) == n_patches - n_masked
    merged = np.concatenate([plan.visible_idx, plan.masked_idx])
    assert np.array_equal(np.sort(merged), np.arange(n_patches))


def test_sample_mask_counts_and_determinism():
    plan = M.sample_mask(600, 0.8, 7)
    assert len(plan.masked_idx) == 480 and len(plan.visible_idx) == 120
    again = M.sample_mask(600, 0.8, 7)
    np.testing.assert_array_equal(plan.masked_idx, again.masked_idx)
    np.testing.assert_array_equal(plan.visible_idx, again.visible_idx)


def test_sample_mask_uniform_frequency():
    n_draws, n_p = 10_000, 60
    counts = np.zeros(n_p)
    for i in range(n_draws):
        counts[M.sample_mask(n_p, 0.8, [5, i]).masked_idx] += 1
    freq = counts / n_draws
    assert np.all(np.abs(freq - 0.8) < 0.02)


def test_sample_mask_degenerate_ratios_rejected():
    with pytest.raises(M.ModelError, match="degenerate"):
        M.sample_mask(6, 0.05, 0)  # floor -> 0 masked
    with pytest.raises(M.ModelError, match="degenerate"):
        M.sample_mask(4, 1.0, 0)  # floor -> all masked


def test_encode_output_shape_small_variant():
    cfg = M.ModelConfig(variant="small")
    model = M.MaskedAutoencoder(cfg, seed=0)
    clips = np.random.default_rng(2).standard_normal((1, 600, 90)).astype(np.float32)
    patches = read_every_patch(clips, cfg)
    plan = M.sample_mask(600, 0.8, 3)
    vis_idx = plan.visible_idx[None, :]
    latent = model.encode(T.Tensor(patches[:, plan.visible_idx]), vis_idx)
    assert latent.shape == (1, 121, 384)


def test_encoder_sees_only_visible_tokens_plus_cls():
    cfg = tiny_cfg()
    model = M.MaskedAutoencoder(cfg, seed=1)
    clips = np.random.default_rng(3).standard_normal((2, 6, 4)).astype(np.float32)
    plans = plans_for(cfg, 2)
    loss, _ = model.forward_loss(clips, plans)
    patches = patchify(clips, 2, 2)
    vis = M._batch_indices(plans, "visible_idx")
    latent = model.encode(T.Tensor(patches[np.arange(2)[:, None], vis]), vis)
    assert latent.shape[1] == 1 + cfg.n_visible
    assert latent.shape[1] < cfg.n_patches + 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "cfg",
    [tiny_cfg(input_time=20, input_chan=8, patch_time=4, patch_freq=2), tiny_cfg(mask_ratio=0.8)],
    ids=["20x8", "6x4"],
)
def test_encode_features_equals_encoding_patchify_tokens_bitwise(cfg, dtype):
    model = M.MaskedAutoencoder(cfg, seed=42, dtype=dtype)
    clips = np.random.default_rng(43).standard_normal((3, cfg.input_time, cfg.input_chan)).astype(dtype)
    tokens = patchify(clips, cfg.patch_time, cfg.patch_freq)
    want = model.encode(T.Tensor(tokens), np.tile(np.arange(cfg.n_patches), (3, 1)))[:, 0, :]
    got = model.encode_features(clips)
    assert got.data.dtype == dtype and got.data.shape == (3, cfg.enc_dim)
    assert got.data.tobytes() == want.data.tobytes()


def test_encode_permutation_equivariance():
    cfg = tiny_cfg(mask_ratio=0.5)
    model = M.MaskedAutoencoder(cfg, seed=4, dtype=np.float64)
    rng = np.random.default_rng(5)
    patches = rng.standard_normal((1, cfg.n_patches, cfg.patch_len))
    plan = M.sample_mask(cfg.n_patches, cfg.mask_ratio, 6)
    vis = plan.visible_idx
    perm = rng.permutation(len(vis))
    out_a = model.encode(T.Tensor(patches[:, vis]), vis[None, :]).data
    out_b = model.encode(T.Tensor(patches[:, vis[perm]]), vis[perm][None, :]).data
    np.testing.assert_allclose(out_a[0, 0], out_b[0, 0], atol=1e-12)  # CLS identical
    np.testing.assert_allclose(out_a[0, 1:][perm], out_b[0, 1:], atol=1e-12)


def test_encode_zero_weights_reduces_to_embedding_path():
    cfg = tiny_cfg()
    model = M.MaskedAutoencoder(cfg, seed=7)
    for name, t in model.params.items():
        if ".attn." in name or ".ffn." in name:
            t.data[...] = 0.0
    rng = np.random.default_rng(8)
    patches = rng.standard_normal((1, 6, 4)).astype(np.float32)
    plan = full_plan(6)
    latent = model.encode(T.Tensor(patches), plan.visible_idx[None, :]).data

    p = model.params
    embedded = patches @ p["enc.embed.w"].data + p["enc.embed.b"].data + p["enc.pos"].data
    seq = np.concatenate([p["enc.cls"].data, embedded], axis=1)
    mu = seq.mean(-1, keepdims=True)
    sd = np.sqrt(((seq - mu) ** 2).mean(-1, keepdims=True) + T.LAYER_NORM_EPS)
    expect = (seq - mu) / sd * p["enc.norm.g"].data + p["enc.norm.b"].data
    np.testing.assert_allclose(latent, expect, atol=1e-6)


def test_decode_output_shape():
    cfg = tiny_cfg()
    model = M.MaskedAutoencoder(cfg, seed=9)
    plans = plans_for(cfg, 3)
    patches = np.random.default_rng(10).standard_normal((3, 6, 4)).astype(np.float32)
    vis, masked = M._batch_indices(plans, "visible_idx"), M._batch_indices(plans, "masked_idx")
    latent = model.encode(T.Tensor(patches[np.arange(3)[:, None], vis]), vis)
    out = model.decode(latent, vis, masked)
    assert out.shape == (3, 1 + cfg.n_patches, cfg.dec_dim)


def test_masked_positions_differ_by_positional_embedding_only():
    cfg = tiny_cfg()
    model = M.MaskedAutoencoder(cfg, seed=11)
    plans = plans_for(cfg, 1, seed=12)
    patches = np.random.default_rng(13).standard_normal((1, 6, 4)).astype(np.float32)
    vis, masked = M._batch_indices(plans, "visible_idx"), M._batch_indices(plans, "masked_idx")
    latent = model.encode(T.Tensor(patches[:, plans[0].visible_idx]), vis)
    tokens = model._decoder_tokens(latent, vis, masked).data  # (1, 1+N_p, dec_dim)
    pos = model.params["dec.pos"].data
    m = plans[0].masked_idx
    i, j = int(m[0]), int(m[1])
    np.testing.assert_allclose(
        tokens[0, 1 + i] - tokens[0, 1 + j], pos[i] - pos[j], atol=1e-6
    )


def test_untrained_model_outputs_are_finite():
    cfg = tiny_cfg(input_time=20, input_chan=8, patch_time=4, patch_freq=2, mask_ratio=0.6)
    model = M.MaskedAutoencoder(cfg, seed=14)
    rng = np.random.default_rng(15)
    clips = rng.standard_normal((100, 20, 8)).astype(np.float32)
    plans = plans_for(cfg, 100, seed=16)
    loss, out = model.forward_loss(clips, plans)
    assert np.isfinite(loss.data)
    assert np.isfinite(out.data).all()


def identity_head(patch_len):
    """A head that passes the decoder output through (dec_dim = patch_len, w = I, b = 0)."""
    return {
        "dec.head.w": T.Tensor(np.eye(patch_len, dtype=np.float32), requires_grad=True),
        "dec.head.b": T.Tensor(np.zeros(patch_len, dtype=np.float32), requires_grad=True),
    }


def decoder_output(recon, requires_grad=False):
    """(B, N_p, P) reconstruction -> (B, 1+N_p, P) decoder output with a CLS row first."""
    cls = np.full((recon.shape[0], 1, recon.shape[2]), 7.0, dtype=recon.dtype)
    return T.Tensor(np.concatenate([cls, recon], axis=1), requires_grad=requires_grad)


def masked_targets(patches, plans):
    """``mae_loss``'s last two arguments: a reader of the masked patches and their (B, M) positions."""
    idx = M._batch_indices(plans, "masked_idx")
    flat = gather_patches(patches, idx).reshape(-1, patches.shape[-1])
    return flat.__getitem__, idx


def test_mae_loss_perfect_reconstruction_is_zero():
    cfg = tiny_cfg()
    patches = np.random.default_rng(17).standard_normal((2, 6, 4)).astype(np.float32)
    plans = plans_for(cfg, 2, seed=18)
    loss = M.mae_loss(decoder_output(patches.copy()), identity_head(4), *masked_targets(patches, plans))
    assert loss.data == 0.0


def test_mae_loss_unit_offset_equals_patch_len():
    # every masked entry off by one -> per-patch error == patch length
    patches = np.random.default_rng(19).standard_normal((2, 600, 90)).astype(np.float32)
    plans = [M.sample_mask(600, 0.8, [20, i]) for i in range(2)]
    loss = M.mae_loss(decoder_output(patches + 1.0), identity_head(90), *masked_targets(patches, plans))
    assert loss.data == pytest.approx(90.0, rel=1e-5)


def test_mae_loss_ignores_visible_positions_bitwise():
    patches = np.random.default_rng(21).standard_normal((2, 600, 90)).astype(np.float32)
    plans = [M.sample_mask(600, 0.8, [22, i]) for i in range(2)]
    recon = patches * 0.5
    head = identity_head(90)
    targets = masked_targets(patches, plans)
    base = M.mae_loss(decoder_output(recon.copy()), head, *targets).data.tobytes()
    tampered = decoder_output(recon.copy())
    tampered.data[:, 0] += 1000.0  # the CLS row is never scored either
    for b, plan in enumerate(plans):
        tampered.data[b, 1 + plan.visible_idx] += 1000.0
    after = M.mae_loss(tampered, head, *targets).data.tobytes()
    assert base == after


def test_mae_loss_gradient_is_zero_at_visible_positions():
    patches = np.random.default_rng(23).standard_normal((1, 600, 90)).astype(np.float32)
    plans = [M.sample_mask(600, 0.8, 24)]
    out = decoder_output(patches * 0.9, requires_grad=True)
    M.mae_loss(out, identity_head(90), *masked_targets(patches, plans)).backward()
    assert (out.grad[0, 0] == 0.0).all()
    assert (out.grad[0, 1 + plans[0].visible_idx] == 0.0).all()
    assert np.abs(out.grad[0, 1 + plans[0].masked_idx]).min() > 0.0


def test_mae_loss_empty_masked_set_rejected():
    patches = np.zeros((1, 6, 4), dtype=np.float32)
    with pytest.raises(T.ShapeError, match="masked_mse_head"):
        M.mae_loss(decoder_output(patches), identity_head(4), *masked_targets(patches, [full_plan(6)]))


def test_single_block_gradients():
    cfg = tiny_cfg()
    rng = np.random.default_rng(25)
    x32 = rng.standard_normal((1, 4, 8)).astype(np.float32)

    def build(dtype):
        p = M.init_params(cfg, seed=26, dtype=dtype)
        names = sorted(n for n in p if n.startswith("enc.blocks.0."))
        return p, names

    def f_factory(names, x_const):
        def f(*tensors):
            p = dict(zip(names, tensors))
            return T.mean_(T.square(M._block(T.Tensor(x_const), p, "enc.blocks.0", 2)))

        return f

    p32, names = build(np.float32)
    err32 = T.grad_check(f_factory(names, x32), [p32[n] for n in names])
    assert err32 < 1e-4
    p64, _ = build(np.float64)
    err64 = T.grad_check(f_factory(names, x32.astype(np.float64)), [p64[n] for n in names])
    assert err64 < 1e-6


def test_full_tiny_mae_gradients_32bit():
    cfg = tiny_cfg()
    model = M.MaskedAutoencoder(cfg, seed=27)
    rng = np.random.default_rng(28)
    clips = rng.standard_normal((1, 6, 4)).astype(np.float32)
    plans = plans_for(cfg, 1, seed=29)
    names = sorted(model.params)

    def f(*tensors):
        loss, _ = M.MaskedAutoencoder(cfg, params=dict(zip(names, tensors))).forward_loss(clips, plans)
        return loss

    err = T.grad_check(f, [model.params[n] for n in names])
    assert err < 1e-4


def desk_batch(n=4, seed=40):
    """A seeded MAE at the desk shape (36 patches, 8 visible) and one batch for it."""
    cfg = M.ModelConfig(variant="tiny", patch_time=100, patch_freq=15, dec_layers=2, dec_dim=128, dec_heads=4)
    model = M.MaskedAutoencoder(cfg, seed=[seed, 0])
    clips = np.random.default_rng([seed, 1]).standard_normal((n, 600, 90)).astype(np.float32)
    return model, clips, plans_for(cfg, n, seed=seed)


def test_consuming_backward_matches_the_plain_reverse_loop_bitwise():
    model, clips, plans = desk_batch()
    loss, _ = model.forward_loss(clips, plans)
    loss.backward()
    got = {k: t.grad for k, t in model.params.items()}

    oracle = M.MaskedAutoencoder(model.cfg, params=C.clone_params(model.params))
    loss_b, _ = oracle.forward_loss(clips, plans)
    loss_b.grad = np.ones_like(loss_b.data)
    for n in reversed(T.tape(loss_b).nodes):  # the non-consuming sweep, kept here as the oracle
        if n._backward is not None and n.grad is not None:
            n._backward(n.grad)
    assert loss.data.tobytes() == loss_b.data.tobytes()
    for k, t in oracle.params.items():
        assert got[k].tobytes() == t.grad.tobytes(), k


def test_no_closure_in_the_desk_graph_keeps_an_ffn_hidden_array():
    model, clips, plans = desk_batch(n=2)
    cfg = model.cfg
    hidden = {cfg.ffn_expansion * cfg.enc_dim, cfg.ffn_expansion * cfg.dec_dim}
    loss, _ = model.forward_loss(clips, plans)
    closures = [n._backward for n in T.tape(loss).nodes if n._backward is not None]
    assert sum(f.__qualname__ == "ffn_sublayer.<locals>.backward" for f in closures) == cfg.enc_layers + cfg.dec_layers
    kept = [c.cell_contents for f in closures for c in f.__closure__ or ()]
    arrays = [a for a in kept if isinstance(a, np.ndarray)]
    assert arrays and [a.shape for a in arrays if a.ndim and a.shape[-1] in hidden] == []


def test_parameter_gradients_are_private_and_writeable():
    model, clips, plans = desk_batch()
    loss, _ = model.forward_loss(clips, plans)
    loss.backward()
    grads = [(k, t.grad) for k, t in sorted(model.params.items())]
    assert all(g is not None and g.flags.writeable for _, g in grads)
    for i, (ka, ga) in enumerate(grads):
        for kb, gb in grads[i + 1 :]:
            assert not np.shares_memory(ga, gb), (ka, kb)


def test_backward_frees_intermediates_and_is_a_no_op_when_repeated():
    model, clips, plans = desk_batch()
    loss, out = model.forward_loss(clips, plans)
    nodes = T.tape(loss).nodes
    refs = [weakref.ref(n.data) for n in nodes if n._backward is not None and n is not loss and n is not out]
    del nodes
    # 5 encoder-input nodes, 2 per block of 8 (the last is the output), the final
    # norm, the projection and 1 decoder-input node, where its 7 nodes made 29
    assert len(refs) == 23
    loss.backward()
    assert [r for r in refs if r() is not None] == []
    assert T.tape(out).nodes == [out]
    before = {k: t.grad.tobytes() for k, t in model.params.items()}
    loss.backward()
    assert {k: t.grad.tobytes() for k, t in model.params.items()} == before


def desk_slope(measure):
    """MiB per clip of ``measure(model, clips, plans)`` between desk batches of 8 and 16.

    The slope between two batch sizes cancels parameters and fixed costs.
    ``measure`` returns bytes, counted by ``tracemalloc`` from the traced
    total at its call.
    """

    def at(n):
        model, clips, plans = desk_batch(n=n)
        tracemalloc.start()
        try:
            return measure(model, clips, plans)
        finally:
            tracemalloc.stop()

    return (at(16) - at(8)) / 8 / 2**20


def graph_bytes(model, clips, plans):
    base = tracemalloc.get_traced_memory()[0]
    loss, _ = model.forward_loss(clips, plans)
    return tracemalloc.get_traced_memory()[0] - base


def forward_peak_bytes(model, clips, plans):
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    loss, _ = model.forward_loss(clips, plans)
    return tracemalloc.get_traced_memory()[1] - base


def test_desk_graph_retains_under_0_55_mib_per_clip():
    # per block the attention output and the two sublayer outputs, and one
    # decoder-input node; no packed qkv, FFN pre-activation, LayerNorm output,
    # pre-residual output, scaled q or full-size head output: about 0.51 MiB,
    # where keeping qkv and building the decoder input from seven nodes took 0.81
    assert desk_slope(graph_bytes) < 0.55


def test_desk_forward_peak_stays_under_0_55_mib_per_clip():
    # the full patch copy is gone before the encoder runs, each attention
    # frees its qkv before its projection, the GELU overwrites fc1's output a
    # row block at a time and the loss squares its residual a row block at a
    # time: about 0.51 MiB, where it was 0.81
    assert desk_slope(forward_peak_bytes) < 0.55


def test_small_graph_retains_under_24_mib_per_clip():
    # the paper's small shape: 600 patches, a 601-token decoder of 4 blocks
    # at width 512, 8 encoder blocks over 121 tokens; the graph's growth from
    # one clip to two, about 21.9 MiB, where keeping qkv and building the
    # decoder input from seven nodes took 45.7
    cfg = M.ModelConfig(variant="small")
    model = M.MaskedAutoencoder(cfg, seed=0)

    def at(n):
        clips = np.random.default_rng(n).standard_normal((n, 600, 90)).astype(np.float32)
        tracemalloc.start()
        try:
            return graph_bytes(model, clips, plans_for(cfg, n, seed=n))
        finally:
            tracemalloc.stop()

    assert (at(2) - at(1)) / 2**20 < 24


def copied_forward_loss(model, clips, plans):
    """``forward_loss`` on copies: patchify the batch, then gather the visible inputs and the masked targets."""
    cfg = model.cfg
    vis, masked = M._batch_indices(plans, "visible_idx"), M._batch_indices(plans, "masked_idx")
    latent = model.encode(T.Tensor(patchify_then_gather(clips, vis, cfg.patch_time, cfg.patch_freq)), vis)
    x = model.decode(latent, vis, masked)
    flat = patchify_then_gather(clips, masked, cfg.patch_time, cfg.patch_freq).reshape(masked.size, -1)
    return M.mae_loss(x, model.params, flat.__getitem__, masked), x


def test_forward_loss_on_clip_rows_gives_the_copied_batch_bits_and_gradients():
    model, store, _ = desk_batch(n=7)
    rows = np.array([5, 2, 2, 6, 0])
    plans = plans_for(model.cfg, len(rows), seed=41)
    copied = M.MaskedAutoencoder(model.cfg, params=C.clone_params(model.params))
    loss, out = model.forward_loss(M.ClipRows(store, rows), plans)
    loss_c, out_c = copied_forward_loss(copied, store[rows], plans)
    assert loss.data.tobytes() == loss_c.data.tobytes()
    assert out.data.tobytes() == out_c.data.tobytes()
    loss.backward()
    loss_c.backward()
    for k, t in model.params.items():
        assert t.grad.tobytes() == copied.params[k].grad.tobytes(), k


def step_peak_over_clip_rows(b):
    """Traced high-water, in bytes, of one desk ``forward_loss`` + ``backward`` over ``b`` rows of a 96-clip store."""
    model, store, _ = desk_batch(n=96)
    rows = np.random.default_rng(b).permutation(96)[:b]
    plans = plans_for(model.cfg, b, seed=b)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, _ = model.forward_loss(M.ClipRows(store, rows), plans)
        loss.backward()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_desk_step_over_clip_rows_peaks_under_0_6_mib_per_clip():
    # no batch copy, no full patch copy, no target array, no kept qkv and one
    # decoder-input node: about 0.53 MiB per clip, where keeping qkv and
    # building the decoder input from seven nodes took 0.84
    assert (step_peak_over_clip_rows(64) - step_peak_over_clip_rows(32)) / 32 / 2**20 < 0.6


@pytest.mark.parametrize(
    "field, value",
    [("dec_heads", 0), ("patch_time", 0), ("dec_layers", -1), ("enc_dim", -8), ("ffn_expansion", 2.0), ("input_chan", True)],
)
def test_model_sizes_must_be_positive_integers(field, value):
    with pytest.raises(M.ModelError, match=re.escape(f"{field}={value!r}")):
        tiny_cfg(**{field: value})


def test_a_decoder_may_have_no_blocks():
    cfg = tiny_cfg(dec_layers=0)
    clips = np.random.default_rng(4).standard_normal((2, 6, 4)).astype(np.float32)
    loss, _ = M.MaskedAutoencoder(cfg, seed=2).forward_loss(clips, plans_for(cfg, 2))
    assert np.isfinite(loss.data)


def test_variant_table_matches_expected_dims():
    for name, (layers, dim, heads) in M.VARIANTS.items():
        cfg = M.ModelConfig(variant=name)
        assert (cfg.enc_layers, cfg.enc_dim, cfg.enc_heads) == (layers, dim, heads)
        assert cfg.dec_layers == 4 and cfg.dec_dim == 512 and cfg.dec_heads == 8
        assert cfg.n_patches == 600 and cfg.n_masked == 480


def test_tiny_encoder_parameter_count_near_3m():
    params = M.init_params(M.ModelConfig(variant="tiny"), seed=0)
    n_enc = sum(t.data.size for name, t in params.items() if name.startswith("enc."))
    assert abs(n_enc - 3e6) / 3e6 < 0.2


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_cfg()
    model = M.MaskedAutoencoder(cfg, seed=30)
    path = C.save_checkpoint(tmp_path / "m.ckpt", model.params, cfg, extra={"epoch": 3})
    params, cfg2, extra = C.load_checkpoint(path)
    assert extra == {"epoch": 3}
    assert cfg2.to_json() == cfg.to_json()
    assert params_equal(params, model.params)


def test_truncated_checkpoint_raises_checkpoint_error(tmp_path):
    cfg = tiny_cfg()
    path = C.save_checkpoint(tmp_path / "m.ckpt", M.init_params(cfg, seed=31), cfg)
    data = path.read_bytes()
    for what, cut in cut_points(data, C._MAGIC).items():
        short = tmp_path / f"cut{cut}.ckpt"
        short.write_bytes(data[:cut])
        with pytest.raises(C.CheckpointError, match=re.escape(f"{short}: truncated in {what}")):
            C.load_checkpoint(short)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    cfg = tiny_cfg()
    return root, C.save_checkpoint(root / "m.ckpt", M.init_params(cfg, seed=35), cfg, extra={"epoch": 1}).read_bytes()


@given(data=st.data())
def test_checkpoint_truncated_anywhere_raises_checkpoint_error(saved_checkpoint, data):
    root, raw = saved_checkpoint
    cut = data.draw(st.integers(0, len(raw) - 1))
    (root / "cut.ckpt").write_bytes(raw[:cut])
    with pytest.raises(C.CheckpointError, match="cut.ckpt: "):
        C.load_checkpoint(root / "cut.ckpt")


def rewrite_metadata(path, blob: bytes):
    """Rewrite a checkpoint's JSON block (and its length field) to ``blob``."""
    path.write_bytes(with_metadata(path.read_bytes(), C._MAGIC, blob))
    return path


def test_checkpoint_with_metadata_that_is_not_utf8_json_raises_checkpoint_error(tmp_path):
    cfg = tiny_cfg()
    path = C.save_checkpoint(tmp_path / "m.ckpt", M.init_params(cfg, seed=32), cfg)
    rewrite_metadata(path, b'{"config": \xff}')
    with pytest.raises(C.CheckpointError, match=re.escape(f"{path}: metadata is not a UTF-8 JSON object")):
        C.load_checkpoint(path)


def test_checkpoint_with_an_unknown_config_key_raises_checkpoint_error(tmp_path):
    cfg = tiny_cfg()
    params = M.init_params(cfg, seed=33)
    path = C.save_checkpoint(tmp_path / "m.ckpt", params, cfg)
    meta = {"config": {**cfg.to_json(), "n_experts": 4}, "extra": {}, "names": sorted(params)}
    rewrite_metadata(path, json.dumps(meta).encode("utf-8"))
    with pytest.raises(C.CheckpointError, match="n_experts"):
        C.load_checkpoint(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: meta["config"].update(dec_heads=0), "dec_heads=0"),
        (lambda meta: meta["names"].pop(), "tensor names for"),
        (lambda meta: meta["names"].__setitem__(1, meta["names"][0]), "not distinct strings"),
        (lambda meta: meta["names"].__setitem__(0, 7), "not distinct strings"),
        (lambda meta: meta.pop("names"), "'names'"),
    ],
    ids=["dec-heads-zero", "a-name-short", "repeated-name", "name-not-a-string", "no-names"],
)
def test_checkpoint_whose_metadata_does_not_describe_its_records_raises_checkpoint_error(tmp_path, edit, message):
    cfg = tiny_cfg()
    params = M.init_params(cfg, seed=37)
    path = C.save_checkpoint(tmp_path / "m.ckpt", params, cfg)
    meta = {"config": cfg.to_json(), "extra": {}, "names": sorted(params)}
    edit(meta)
    rewrite_metadata(path, json.dumps(meta).encode("utf-8"))
    with pytest.raises(C.CheckpointError, match=re.escape(message)) as err:
        C.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_with_a_float64_record_raises_checkpoint_error(tmp_path):
    from csimae import data as D

    cfg = tiny_cfg()
    params = M.init_params(cfg, seed=38)
    names = sorted(params)
    arrays = [params[n].data.astype(np.float64 if i == 2 else np.float32) for i, n in enumerate(names)]
    path = D.write_tensor_file(tmp_path / "m.ckpt", C._MAGIC, {"config": cfg.to_json(), "extra": {}, "names": names}, arrays)
    with pytest.raises(C.CheckpointError, match=re.escape(f"{path}: tensor(s) not float32: {names[2]}")):
        C.load_checkpoint(path)


def test_checkpoint_in_the_earlier_layout_raises_checkpoint_error(tmp_path):
    # the earlier layout: magic, <II metadata length and tensor count, compact JSON, then per
    # tensor <II name length and ndim, the name, the dims and the float32 payload
    cfg = tiny_cfg()
    params = M.init_params(cfg, seed=39)
    blob = json.dumps({"config": cfg.to_json(), "extra": {}}, sort_keys=True, separators=(",", ":")).encode()
    raw = b"CSICKPT1" + struct.pack("<II", len(blob), len(params)) + blob
    for name in sorted(params):
        arr, nb = params[name].data.astype("<f4"), name.encode()
        raw += struct.pack("<II", len(nb), arr.ndim) + nb + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes()
    path = tmp_path / "old.ckpt"
    path.write_bytes(raw)
    with pytest.raises(C.CheckpointError, match=re.escape(f"{path}: magic b'CSICKPT1' is not")):
        C.load_checkpoint(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.pop("enc.cls"), "enc.cls missing where the config has (1, 1, 8)"),
        (lambda p: p.update({"head.out.w": T.Tensor(np.zeros((8, 2)))}), "head.out.w (8, 2) where the config has none"),
        (lambda p: p.update({"enc.pos": T.Tensor(np.zeros((6, 16)))}), "enc.pos (6, 16) where the config has (6, 8)"),
    ],
    ids=["missing", "unexpected", "shape"],
)
def test_checkpoint_whose_tensors_are_not_the_config_layout_raises_checkpoint_error(tmp_path, edit, message):
    cfg = tiny_cfg()
    params = M.init_params(cfg, seed=34)
    edit(params)
    path = C.save_checkpoint(tmp_path / "m.ckpt", params, cfg)
    with pytest.raises(C.CheckpointError, match=re.escape(f"{path}: 1 tensor(s) differ from the model config's layout: {message}")):
        C.load_checkpoint(path)


def test_checkpoint_rejects_foreign_files(tmp_path):
    bad = tmp_path / "junk.ckpt"
    bad.write_bytes(b"NOTACKPT123")
    with pytest.raises(C.CheckpointError):
        C.load_checkpoint(bad)
