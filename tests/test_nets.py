"""Oracle checks for network blocks, the taped input gradient, the
gradient penalty's second-order gradients, and the checkpoint format."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import racelab.autodiff as ad
from racelab import nets


def mlp_param_fd_check(mlp, x, loss_of, rng, h=1e-6, tol=1e-6, n_probe=6):
    """Central-difference check of d loss / d theta for random coords."""
    params = mlp.params()
    ad.zero_grads(params.values())
    loss = loss_of()
    ad.backward(loss)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        idxs = rng.choice(flat.size, size=min(n_probe, flat.size), replace=False)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + h
            hi = float(loss_of().data)
            flat[i] = keep - h
            lo = float(loss_of().data)
            flat[i] = keep
            fd = (hi - lo) / (2.0 * h)
            an = float(gflat[i])
            assert abs(an - fd) <= tol * max(1.0, abs(an), abs(fd)), (
                f"{name}[{i}]: analytic {an} vs fd {fd}"
            )


class TestMLP:
    def test_taped_and_numpy_paths_agree_bitwise(self):
        rng = np.random.default_rng(0)
        mlp = nets.MLP([6, 16, 3], ["relu", "identity"], rng)
        x = rng.standard_normal((5, 6)).astype(np.float32)
        taped = mlp(ad.Tensor(x)).data
        (w0, b0), (w1, b1) = ((layer.W.data, layer.b.data) for layer in mlp.layers)
        reference = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
        assert np.array_equal(taped, reference)
        assert np.array_equal(mlp.predict(x), reference)

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        with ad.precision("float64"):
            mlp = nets.MLP([4, 12, 12, 1], ["tanh", "tanh", "identity"], rng)
            x = rng.standard_normal((8, 4))
            target = rng.standard_normal((8, 1))

            def loss_of():
                return ad.mse(mlp(ad.tensor(x)), ad.tensor(target))

            mlp_param_fd_check(mlp, x, loss_of, rng)

    def test_relu_network_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        with ad.precision("float64"):
            mlp = nets.MLP([5, 16, 16, 2], ["relu", "relu", "identity"], rng)
            x = rng.standard_normal((10, 5))
            target = rng.standard_normal((10, 2))

            def loss_of():
                return ad.mse(mlp(ad.tensor(x)), ad.tensor(target))

            mlp_param_fd_check(mlp, x, loss_of, rng)

    def test_final_zero_init_outputs_zero(self):
        rng = np.random.default_rng(3)
        mlp = nets.MLP([4, 8, 2], ["relu", "identity"], rng, final_zero=True)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        assert np.array_equal(mlp.predict(x), np.zeros((3, 2), dtype=np.float32))

    def test_unknown_activation_is_refused_when_built(self):
        with pytest.raises(ValueError, match="relu, tanh or identity"):
            nets.MLP([3, 4, 1], ["sigmoid", "identity"], np.random.default_rng(11))

    def test_trunc_normal_bounded_by_two_sigma(self):
        rng = np.random.default_rng(4)
        sample = nets.trunc_normal((2000,), 0.5, rng)
        assert np.abs(sample).max() <= 2.0 * 0.5 + 1e-6
        # A +/- 2 sigma truncation shrinks the std to about 0.880 sigma.
        assert abs(sample.std() - 0.4398) < 0.03


class TestInputGradient:
    def test_first_order_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        with ad.precision("float64"):
            mlp = nets.MLP([3, 8, 8, 1], ["tanh", "tanh", "identity"], rng)
            x = rng.standard_normal((4, 3))
            _, grad = nets.mlp_input_gradient(mlp, ad.tensor(x))
            h = 1e-6
            for r in range(4):
                for c in range(3):
                    xp = x.copy()
                    xp[r, c] += h
                    xm = x.copy()
                    xm[r, c] -= h
                    fd = (mlp.predict(xp)[r, 0] - mlp.predict(xm)[r, 0]) / (2 * h)
                    assert abs(float(grad.data[r, c]) - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_relu_rejected_by_name(self):
        rng = np.random.default_rng(7)
        mlp = nets.MLP([3, 6, 1], ["relu", "identity"], rng)
        with pytest.raises(ad.AutodiffError, match="relu"):
            nets.mlp_input_gradient(mlp, ad.tensor(np.zeros((1, 3))))

    def test_vector_output_rejected(self):
        rng = np.random.default_rng(8)
        mlp = nets.MLP([3, 6, 2], ["tanh", "identity"], rng)
        with pytest.raises(ad.AutodiffError, match="scalar"):
            nets.mlp_input_gradient(mlp, ad.tensor(np.zeros((1, 3))))


class TestGradientPenalty:
    def test_second_order_parameter_gradients_match_finite_differences(self):
        """d/d theta of (||grad_x f|| - 1)^2 against central differences.

        This is the double-backward path the adversarial training uses;
        1e-4 relative agreement in float64 over random coordinates.
        """
        rng = np.random.default_rng(9)
        with ad.precision("float64"):
            mlp = nets.MLP([4, 8, 8, 1], ["tanh", "tanh", "identity"], rng)
            x_hat = rng.standard_normal((6, 4))

            def penalty_value():
                return float(nets.gradient_penalty(mlp, x_hat, 1.0).data)

            params = mlp.params()
            ad.zero_grads(params.values())
            ad.backward(nets.gradient_penalty(mlp, x_hat, 1.0))
            h = 1e-5
            for name, p in params.items():
                flat = p.data.reshape(-1)
                # The final bias cannot move the input gradient; its
                # (absent) gradient must agree with a near-zero fd.
                gflat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
                idxs = rng.choice(flat.size, size=min(4, flat.size), replace=False)
                for i in idxs:
                    keep = flat[i]
                    flat[i] = keep + h
                    hi = penalty_value()
                    flat[i] = keep - h
                    lo = penalty_value()
                    flat[i] = keep
                    fd = (hi - lo) / (2.0 * h)
                    an = float(gflat[i])
                    assert abs(an - fd) <= 1e-4 * max(1.0, abs(an), abs(fd)), (
                        f"{name}[{i}]: analytic {an} vs fd {fd}"
                    )

    def test_penalty_is_zero_for_unit_gradient_net(self):
        # f(x) = w . x with ||w|| = 1 has input gradient w everywhere.
        rng = np.random.default_rng(10)
        with ad.precision("float64"):
            mlp = nets.MLP([3, 1], ["identity"], rng)
            w = np.asarray([[0.6], [0.8], [0.0]])
            mlp.layers[0].W.data[...] = w
            mlp.layers[0].b.data[...] = 0.0
            pen = float(nets.gradient_penalty(mlp, rng.standard_normal((5, 3)), 1.0).data)
        assert pen < 1e-10


class TestCheckpointFormat:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        arrays = {
            "b.W": rng.standard_normal((3, 4)).astype(np.float32),
            "a.b": rng.standard_normal(7).astype(np.float64),
        }
        path = tmp_path / "ck.bin"
        nets.save_params(path, arrays, {"kind": "test"})
        meta, loaded = nets.load_params(path)
        assert meta == {"kind": "test"}
        assert sorted(loaded) == ["a.b", "b.W"]
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])
            assert loaded[k].dtype == arrays[k].dtype

    def test_identical_params_produce_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(12)
        arrays = {"x.W": rng.standard_normal((5, 5)).astype(np.float32)}
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        nets.save_params(p1, arrays, {"seed": 3})
        nets.save_params(p2, {"x.W": arrays["x.W"].copy()}, {"seed": 3})
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_truncated_file_rejected(self, tmp_path):
        arrays = {"x.W": np.ones((4, 4), dtype=np.float32)}
        path = tmp_path / "ck.bin"
        nets.save_params(path, arrays, {})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(nets.CheckpointError, match="truncated"):
            nets.load_params(path)

    def test_padded_file_rejected(self, tmp_path):
        arrays = {"x.W": np.ones((4, 4), dtype=np.float32)}
        path = tmp_path / "ck.bin"
        nets.save_params(path, arrays, {})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(nets.CheckpointError, match="trailing bytes"):
            nets.load_params(path)

    def test_scalar_and_empty_tensors_round_trip(self, tmp_path):
        arrays = {
            "f4.scalar": np.array(1.5, dtype=np.float32),
            "f8.scalar": np.array(-2.25),
            "f4.empty": np.zeros((0, 3), dtype=np.float32),
            "f8.empty": np.zeros(0),
            "f4.after": np.arange(3, dtype=np.float32),
        }
        path = tmp_path / "ck.bin"
        nets.save_params(path, arrays, {})
        _, loaded = nets.load_params(path)
        assert list(loaded) == sorted(arrays)
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    def test_load_holds_one_copy_of_a_tensor(self, tmp_path):
        tensor = np.arange(1 << 20, dtype=np.float32)  # 4 MiB
        nets.save_params(tmp_path / "ck.bin", {"t": tensor}, {})
        tracemalloc.start()
        try:
            _, loaded = nets.load_params(tmp_path / "ck.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tensor.nbytes * 9 // 8
        assert np.array_equal(loaded["t"], tensor)

    @pytest.mark.parametrize("head, match", [
        (b"\x89PNG\r\n", "unreadable checkpoint header"),
        (b"[1, 2]\n", "unrecognized checkpoint format"),
        (b'{"format": "racelab-tensors-v0"}\n', "unrecognized checkpoint format"),
    ])
    def test_foreign_file_rejected(self, tmp_path, head, match):
        path = tmp_path / "ck.bin"
        path.write_bytes(head)
        with pytest.raises(nets.CheckpointError, match=match):
            nets.load_params(path)

    def test_load_into_fills_parameter_tensors_in_place(self, tmp_path):
        saved = nets.MLP([3, 4, 1], ["tanh", "identity"], np.random.default_rng(11), name="d")
        live = nets.MLP([3, 4, 1], ["tanh", "identity"], np.random.default_rng(12), name="d")
        nets.save_params(tmp_path / "ck.bin", saved.params(), {"kind": "test"})
        meta, loaded = nets.load_params(tmp_path / "ck.bin", lambda meta, shapes: live.params())
        assert meta == {"kind": "test"}
        for name, p in live.params().items():
            assert loaded[name] is p.data
            assert p.data.tobytes() == saved.params()[name].data.tobytes()

    @pytest.mark.parametrize("stored", [(2, 2), "float64"], ids=["shape", "dtype"])
    def test_shape_mismatch_on_load_into_rejected(self, tmp_path, stored):
        mlp = nets.MLP([3, 4, 1], ["tanh", "identity"], np.random.default_rng(13), name="d")
        before = {name: p.data.copy() for name, p in mlp.params().items()}
        wrong = {name: np.zeros((2, 2), dtype=np.float32) if stored == (2, 2)
                 else p.data.astype(stored) for name, p in mlp.params().items()}
        nets.save_params(tmp_path / "ck.bin", wrong, {})
        with pytest.raises(nets.CheckpointError, match="does not fit its destination"):
            nets.load_params(tmp_path / "ck.bin", lambda meta, shapes: mlp.params())
        # Refused before any byte reached a destination.
        for name, p in mlp.params().items():
            assert p.data.tobytes() == before[name].tobytes()

    def test_a_destination_absent_from_the_file_is_refused_by_name(self, tmp_path):
        mlp = nets.MLP([3, 4, 1], ["tanh", "identity"], np.random.default_rng(15), name="d")
        params = mlp.params()
        nets.save_params(tmp_path / "ck.bin",
                         {name: p for name, p in params.items() if name != "d.1.b"}, {})
        with pytest.raises(nets.CheckpointError) as info:
            nets.load_params(tmp_path / "ck.bin", lambda meta, shapes: params)
        assert str(info.value) == "checkpoint missing parameter d.1.b"

    @pytest.mark.parametrize("tensors", [
        [{"name": "t", "shape": [2]}],
        [{"name": "t", "shape": [2], "dtype": "<i4"}],
        [{"name": "t", "shape": [2.0], "dtype": "<f4"}],
        [{"name": "t", "shape": [-1], "dtype": "<f4"}],
        [{"name": 3, "shape": [2], "dtype": "<f4"}],
        ["t"],
        None,
    ], ids=["no-dtype", "int-dtype", "float-dim", "negative-dim", "int-name", "not-a-dict",
            "no-list"])
    def test_a_malformed_tensor_list_is_an_unreadable_header(self, tmp_path, tensors):
        header = {"format": nets.CHECKPOINT_FORMAT, "meta": {}}
        if tensors is not None:
            header["tensors"] = tensors
        path = tmp_path / "ck.bin"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + bytes(8))
        with pytest.raises(nets.CheckpointError, match="unreadable checkpoint header"):
            nets.load_params(path)

    def test_streamed_buffers_equal_the_copying_writer(self, tmp_path):
        # The writer before buffers were streamed: a tobytes() copy of every
        # tensor first, then one write each.
        def copying_save(path, named, meta):
            entries, blobs = [], []
            for name in sorted(named):
                arr = np.asarray(named[name])
                code = {"float32": "<f4", "float64": "<f8"}[str(arr.dtype)]
                entries.append({"name": name, "shape": list(arr.shape), "dtype": code})
                blobs.append(np.ascontiguousarray(arr, dtype=code).tobytes())
            header = {"format": nets.CHECKPOINT_FORMAT, "meta": meta, "tensors": entries}
            path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
                             + b"".join(blobs))

        rng = np.random.default_rng(14)
        arrays = {
            "f4": rng.standard_normal((3, 4)).astype(np.float32),
            "f8": rng.standard_normal(5),
            "f4.scalar": np.array(1.5, dtype=np.float32),
            "f8.scalar": np.array(-2.25),
            "f4.empty": np.zeros((0, 3), dtype=np.float32),
            "f8.empty": np.zeros(0),
            "f4.transposed": rng.standard_normal((4, 3)).astype(np.float32).T,
            "f8.rows": rng.standard_normal((6, 2))[1:4],
        }
        nets.save_params(tmp_path / "new.bin", arrays, {"kind": "test"})
        copying_save(tmp_path / "old.bin", arrays, {"kind": "test"})
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()
        assert nets.load_meta(tmp_path / "new.bin") == {"kind": "test"}

    def test_save_holds_no_copy_of_a_contiguous_buffer(self, tmp_path):
        ring = np.zeros((1 << 20,), dtype=np.float32)  # 4 MiB
        tracemalloc.start()
        try:
            nets.save_params(tmp_path / "ck.bin", {"ring": ring[: 3 << 18]}, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ring.nbytes // 8


class TestFrozen:
    def test_frozen_params_get_no_gradient_and_are_handed_back(self):
        rng = np.random.default_rng(9)
        mlp = nets.MLP([3, 8, 1], ["relu", "identity"], rng)
        params = list(mlp.params().values())
        params[-1].requires_grad = False  # a prior False is kept as False
        x = ad.tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with nets.frozen(params):
            assert not any(p.requires_grad for p in params)
            ad.backward(ad.mean_all(mlp(x)))
        assert all(p.grad is None for p in params)
        assert x.grad is not None
        assert [p.requires_grad for p in params] == [True, True, True, False]

    def test_frozen_hands_back_when_the_block_raises(self):
        mlp = nets.MLP([3, 4, 1], ["tanh", "identity"], np.random.default_rng(10))
        params = list(mlp.params().values())
        with np.errstate(over="ignore"), pytest.raises(ad.AutodiffError, match="exp"):
            with nets.frozen(params):
                ad.exp(ad.tensor([1000.0]))
        assert all(p.requires_grad for p in params)
