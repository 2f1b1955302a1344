"""Fused closed-form training engine vs. the autograd reference.

Three layers of evidence that ``engine="fused"`` is an exact, faster drop-in
for the reverse-mode engine:

* gradient parity — the analytic gradients of
  :func:`repro.core.fused.fused_forward_backward` match the autograd
  gradients to ~1e-10 over random configurations (MAR and MARS, λ terms
  on/off, adaptive margins on/off, K = 1..4, duplicate rows in the batch);
* trajectory equivalence — seeded end-to-end training produces identical
  loss curves and final parameters up to float tolerance;
* speed — a fused MARS step is at least 3x faster than an autograd step at
  benchmark-preset shapes.

A fourth group pins the step-buffer contract: steps that reuse the
per-thread work arrays of :mod:`repro.utils.workspace` are bitwise equal to
allocating ones, never hand back aliased memory, stay thread-local, do not
outlive ``fit``, and keep the per-step transient allocation small.
"""

import gc
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core import MAR, MARS, fused, losses
from repro.core import _multifacet
from repro.core._multifacet import _MultiFacetNetwork
from repro.core.fused import FusedStepResult, fused_forward_backward
from repro.core.spherical import riemannian_update_rows
from repro.data import MultiFacetSyntheticGenerator, SyntheticConfig
from repro.data.batching import TripletBatch
from repro.utils.workspace import current_workspace, workspace_scope


def _make_model(model_cls, n_users, n_items, seed, **config_overrides):
    """Model with a freshly initialised network but no training run."""
    model = model_cls(random_state=seed, **config_overrides)
    config = model.config
    model.network = _MultiFacetNetwork(
        n_users=n_users, n_items=n_items, n_facets=config.n_facets,
        dim=config.embedding_dim, spherical=model._spherical(),
        projection_noise=config.projection_noise, random_state=seed,
    )
    rng = np.random.default_rng(seed)
    # Non-uniform facet logits so the softmax Jacobian is exercised.
    model.network.facet_logits.data = rng.normal(size=(n_users, config.n_facets))
    model.margins_ = rng.uniform(0.1, 0.9, size=n_users)
    return model


def _random_batch(rng, n_users, n_items, size=24):
    users = rng.integers(0, n_users, size=size)
    positives = rng.integers(0, n_items, size=size)
    negatives = rng.integers(0, n_items, size=size)
    # Force the duplicate-row scatter paths: repeated user, item shared
    # between the positive and negative columns.
    users[0] = users[1]
    negatives[2] = positives[3]
    return TripletBatch(users=users, positives=positives, negatives=negatives)


def _fused_step(model, batch):
    network = model.network
    config = model.config
    return fused_forward_backward(
        network.user_embeddings.weight.data,
        network.item_embeddings.weight.data,
        network.user_projections.data,
        network.item_projections.data,
        network.facet_logits.data,
        batch.users, batch.positives, batch.negatives,
        model.margins_[batch.users],
        lambda_pull=config.lambda_pull, lambda_facet=config.lambda_facet,
        alpha=config.alpha, spherical=model._spherical(),
    )


def _densify(shape_like, rows, row_grads):
    dense = np.zeros_like(shape_like)
    dense[rows] = row_grads
    return dense


class TestGradientParity:
    N_USERS, N_ITEMS = 14, 22

    @pytest.mark.parametrize("model_cls", [MAR, MARS])
    @pytest.mark.parametrize("lambda_pull", [0.0, 0.1])
    @pytest.mark.parametrize("lambda_facet", [0.0, 0.01])
    @pytest.mark.parametrize("adaptive_margin", [True, False])
    def test_matches_autograd(self, model_cls, lambda_pull, lambda_facet,
                              adaptive_margin):
        for seed in (0, 1, 2):
            model = _make_model(
                model_cls, self.N_USERS, self.N_ITEMS, seed,
                n_facets=3, embedding_dim=8, lambda_pull=lambda_pull,
                lambda_facet=lambda_facet, adaptive_margin=adaptive_margin,
            )
            if not adaptive_margin:
                model.margins_ = np.full(self.N_USERS, model.config.margin)
            batch = _random_batch(np.random.default_rng(seed + 100),
                                  self.N_USERS, self.N_ITEMS)

            loss = model._autograd_loss(batch)
            model.network.zero_grad()
            loss.backward()
            step = _fused_step(model, batch)

            assert step.loss == pytest.approx(loss.item(), abs=1e-11)
            network = model.network
            np.testing.assert_allclose(
                _densify(network.user_embeddings.weight.data,
                         step.user_rows, step.user_grad),
                network.user_embeddings.weight.grad, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(
                _densify(network.item_embeddings.weight.data,
                         step.item_rows, step.item_grad),
                network.item_embeddings.weight.grad, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(
                _densify(network.facet_logits.data,
                         step.user_rows, step.logit_grad),
                network.facet_logits.grad, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(step.user_projection_grad,
                                       network.user_projections.grad,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(step.item_projection_grad,
                                       network.item_projections.grad,
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("model_cls", [MAR, MARS])
    @pytest.mark.parametrize("n_facets", [1, 2, 4])
    def test_matches_autograd_across_facet_counts(self, model_cls, n_facets):
        model = _make_model(model_cls, self.N_USERS, self.N_ITEMS, 3,
                            n_facets=n_facets, embedding_dim=8)
        batch = _random_batch(np.random.default_rng(7),
                              self.N_USERS, self.N_ITEMS)
        loss = model._autograd_loss(batch)
        model.network.zero_grad()
        loss.backward()
        step = _fused_step(model, batch)
        assert step.loss == pytest.approx(loss.item(), abs=1e-11)
        np.testing.assert_allclose(
            _densify(model.network.user_embeddings.weight.data,
                     step.user_rows, step.user_grad),
            model.network.user_embeddings.weight.grad, rtol=1e-9, atol=1e-12)

    def test_numpy_loss_variants_match_autograd_values(self):
        rng = np.random.default_rng(5)
        pos = rng.normal(size=16)
        neg = rng.normal(size=16)
        margins = rng.uniform(0.1, 0.9, size=16)
        push_value, _, _ = losses.push_loss_numpy(pos, neg, margins)
        from repro.autograd import Tensor
        assert push_value == pytest.approx(
            losses.push_loss(Tensor(pos), Tensor(neg), margins).item(), abs=1e-12)
        pull_value, _ = losses.pull_loss_numpy(pos)
        assert pull_value == pytest.approx(
            losses.pull_loss(Tensor(pos)).item(), abs=1e-12)
        for spherical in (False, True):
            stacked = rng.normal(size=(3, 16, 6))
            value, _ = losses.facet_separating_loss_numpy(
                stacked, alpha=0.3, spherical=spherical)
            reference = losses.facet_separating_loss(
                Tensor(stacked), alpha=0.3, spherical=spherical)
            assert value == pytest.approx(reference.item(), abs=1e-11)


class TestTrajectoryEquivalence:
    @pytest.fixture(scope="class")
    def dataset(self):
        config = SyntheticConfig(n_users=50, n_items=70, n_facets=3,
                                 interactions_per_user=10.0)
        return MultiFacetSyntheticGenerator(config, random_state=0).generate_dataset()

    @pytest.mark.parametrize("model_cls", [MAR, MARS])
    def test_identical_seeded_loss_curves(self, dataset, model_cls):
        kwargs = dict(n_facets=3, embedding_dim=12, n_epochs=3, batch_size=48,
                      random_state=11)
        fused = model_cls(engine="fused", **kwargs).fit(dataset)
        autograd = model_cls(engine="autograd", **kwargs).fit(dataset)
        np.testing.assert_allclose(fused.loss_history_, autograd.loss_history_,
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            fused.network.user_embeddings.weight.data,
            autograd.network.user_embeddings.weight.data,
            rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            fused.network.item_embeddings.weight.data,
            autograd.network.item_embeddings.weight.data,
            rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            fused.network.facet_logits.data,
            autograd.network.facet_logits.data,
            rtol=1e-9, atol=1e-9)

    def test_fused_is_the_default_engine(self):
        assert MAR().config.engine == "fused"
        assert MARS().config.engine == "fused"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            MAR(engine="bogus")

    def test_mars_constraints_hold_under_fused_training(self, dataset):
        model = MARS(n_facets=2, embedding_dim=10, n_epochs=2, batch_size=48,
                     random_state=0).fit(dataset)
        norms = np.linalg.norm(model.network.user_embeddings.weight.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-8)

    def test_mar_constraints_hold_under_fused_training(self, dataset):
        model = MAR(n_facets=2, embedding_dim=10, n_epochs=2, batch_size=48,
                    random_state=0).fit(dataset)
        norms = np.linalg.norm(model.network.user_embeddings.weight.data, axis=1)
        assert np.all(norms <= 1.0 + 1e-8)

    def test_mar_constraints_cover_never_sampled_rows(self):
        """Rows a sparse run never touches must still satisfy Eq. 11.

        Gaussian init can start outside the unit ball; with row-restricted
        censoring the full table is clipped once at fit start, so items that
        never appear in any batch still end training inside the ball.
        """
        from repro.data import InteractionMatrix
        rng = np.random.default_rng(0)
        users, items = [], []
        for user in range(30):              # interactions confined to items 0-49
            chosen = rng.choice(50, size=6, replace=False)
            users.extend([user] * 6)
            items.extend(chosen.tolist())
        train = InteractionMatrix(30, 200, users, items)
        model = MAR(n_facets=2, embedding_dim=16, n_epochs=1, batch_size=32,
                    random_state=0).fit(train)
        norms = np.linalg.norm(model.network.item_embeddings.weight.data, axis=1)
        assert np.all(norms <= 1.0 + 1e-8)


class TestRowWiseOptimizerHelpers:
    def test_sgd_step_rows_matches_dense_step(self):
        from repro.autograd import Parameter
        from repro.autograd.optim import SGD
        rng = np.random.default_rng(0)
        data = rng.normal(size=(10, 4))
        rows = np.array([1, 4, 7])
        row_grads = rng.normal(size=(3, 4))

        dense = Parameter(data.copy())
        dense.grad = np.zeros_like(data)
        dense.grad[rows] = row_grads
        SGD([dense], lr=0.1).step()

        sparse = Parameter(data.copy())
        SGD([sparse], lr=0.1).step_rows(sparse, rows, row_grads)
        np.testing.assert_array_equal(sparse.data, dense.data)

    def test_sgd_step_rows_rejects_momentum(self):
        from repro.autograd import Parameter
        from repro.autograd.optim import SGD
        parameter = Parameter(np.ones((4, 2)))
        optimizer = SGD([parameter], lr=0.1, momentum=0.5)
        with pytest.raises(ValueError):
            optimizer.step_rows(parameter, np.array([0]), np.ones((1, 2)))

    @pytest.mark.parametrize("calibrate", [True, False])
    def test_riemannian_step_rows_matches_dense_step(self, calibrate):
        from repro.autograd import Parameter
        from repro.autograd.optim import RiemannianSGD
        rng = np.random.default_rng(1)
        data = rng.normal(size=(8, 5))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        rows = np.array([0, 3, 6])
        row_grads = rng.normal(size=(3, 5))

        dense = Parameter(data.copy(), spherical=True)
        dense.grad = np.zeros_like(data)
        dense.grad[rows] = row_grads
        RiemannianSGD([dense], lr=0.5, calibrate=calibrate).step()

        sparse = Parameter(data.copy(), spherical=True)
        RiemannianSGD([sparse], lr=0.5, calibrate=calibrate).step_rows(
            sparse, rows, row_grads)
        np.testing.assert_array_equal(sparse.data, dense.data)

    def test_riemannian_rows_zero_gradient_is_identity(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(4, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        updated = riemannian_update_rows(points, np.zeros_like(points), lr=1.0)
        np.testing.assert_array_equal(updated, points)

    def test_riemannian_rows_stay_on_sphere(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(6, 4))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        updated = riemannian_update_rows(points, rng.normal(size=(6, 4)), lr=2.0)
        np.testing.assert_allclose(np.linalg.norm(updated, axis=1), 1.0,
                                   atol=1e-12)


def _snapshot(step: FusedStepResult) -> dict:
    return {name: np.array(value, copy=True)
            for name, value in vars(step).items()}


def _assert_same_step(step: FusedStepResult, reference) -> None:
    """Bitwise equality of a step against a step or a :func:`_snapshot`."""
    expected = reference if isinstance(reference, dict) else vars(reference)
    for name, value in vars(step).items():
        np.testing.assert_array_equal(value, expected[name], err_msg=name)


class TestStepBuffers:
    N_USERS, N_ITEMS = 60, 80

    def _steps(self, model_cls, sizes, n_negatives=1, seed=0):
        """One step closure per batch size, all over one fixed model."""
        model = _make_model(model_cls, self.N_USERS, self.N_ITEMS, seed,
                            n_facets=4, embedding_dim=8, lambda_pull=0.1,
                            lambda_facet=0.01)
        rng = np.random.default_rng(seed + 1)
        network, config = model.network, model.config
        steps = []
        for size in sizes:
            users = rng.integers(0, self.N_USERS, size)
            positives = rng.integers(0, self.N_ITEMS, size)
            negatives = rng.integers(0, self.N_ITEMS, (size, n_negatives))

            def step(users=users, positives=positives, negatives=negatives):
                return fused_forward_backward(
                    network.user_embeddings.weight.data,
                    network.item_embeddings.weight.data,
                    network.user_projections.data,
                    network.item_projections.data,
                    network.facet_logits.data,
                    users, positives, negatives, model.margins_[users],
                    lambda_pull=config.lambda_pull,
                    lambda_facet=config.lambda_facet, alpha=config.alpha,
                    spherical=model._spherical(), reduction="hardest")
            steps.append(step)
        return steps

    @pytest.mark.parametrize("model_cls", [MAR, MARS])
    @pytest.mark.parametrize("n_negatives", [1, 3])
    def test_buffered_step_bitwise_equals_unbuffered(self, model_cls,
                                                     n_negatives):
        big, small = self._steps(model_cls, (40, 24), n_negatives)
        references = [big(), small()]
        with workspace_scope() as workspace:
            # Dirty, oversized buffers first: the small batch must reuse
            # a prefix of them and still match.
            _assert_same_step(big(), references[0])
            _assert_same_step(small(), references[1])
            _assert_same_step(big(), references[0])
            assert workspace.nbytes > 0

    def test_results_never_alias_buffers(self):
        first, second = self._steps(MARS, (32, 32))
        with workspace_scope():
            step = first()
            kept = _snapshot(step)
            second()
            second()
        _assert_same_step(step, kept)

    def test_concurrent_threads_match_their_serial_results(self):
        per_thread = [self._steps(MARS, (48, 20, 48, 20), seed=0),
                      self._steps(MAR, (32, 40, 32, 40), seed=1)]
        serial = [[step() for step in steps] for steps in per_thread]
        results = [None, None]
        barrier = threading.Barrier(2)

        def run(index):
            with workspace_scope():
                barrier.wait()
                results[index] = [step() for _ in range(5)
                                  for step in per_thread[index]]

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got, expected in zip(results, serial):
            assert len(got) == 5 * len(expected)
            for position, step in enumerate(got):
                _assert_same_step(step, expected[position % len(expected)])

    @pytest.mark.parametrize("executor,n_shards", [("serial", 1),
                                                   ("sharded", 2)])
    def test_no_buffer_outlives_fit(self, monkeypatch, executor, n_shards):
        seen = []
        kernel = _multifacet.fused_forward_backward

        def spy(*args, **kwargs):
            workspace = current_workspace()
            assert workspace is not None, "fused step ran outside a scope"
            seen.append((threading.get_ident(), weakref.ref(workspace)))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(_multifacet, "fused_forward_backward", spy)
        config = SyntheticConfig(n_users=50, n_items=70, n_facets=3,
                                 interactions_per_user=10.0)
        dataset = MultiFacetSyntheticGenerator(
            config, random_state=0).generate_dataset()
        model = MARS(n_facets=3, embedding_dim=8, n_epochs=2, batch_size=64,
                     executor=executor, n_shards=n_shards,
                     random_state=0).fit(dataset)
        assert current_workspace() is None
        # CPython hands out one weakref object per live referent, so the
        # (kept-alive) refs identify workspaces even after they are freed.
        owners = {}
        for thread, ref in seen:
            owners.setdefault(id(ref), set()).add(thread)
        if executor == "serial":
            # One workspace for the whole run, on the calling thread.
            assert list(owners.values()) == [{threading.get_ident()}]
        else:
            # One per shard sub-epoch, never shared between threads.
            assert len(owners) == 2 * n_shards
            assert all(len(threads) == 1 for threads in owners.values())
        model.fit_more(1)
        gc.collect()
        assert seen and all(ref() is None for _, ref in seen)

    def test_transient_peak_stays_small(self):
        """Deterministic allocation gate at the ``train-mars`` step shape.

        Without step buffers a step allocates ~7 MB of intermediates; with
        them, what remains is the small per-facet coefficient arrays, the
        scatter and the returned gradients.
        """
        n_users, n_items, batch = 4000, 3000, 512
        model = _make_model(MARS, n_users, n_items, 0, n_facets=4,
                            embedding_dim=32)
        network, config = model.network, model.config
        rng = np.random.default_rng(0)
        peaks = []
        with workspace_scope():
            for _ in range(6):
                users = rng.integers(0, n_users, batch)
                positives = rng.integers(0, n_items, batch)
                negatives = rng.integers(0, n_items, batch)
                tracemalloc.start()
                before, _ = tracemalloc.get_traced_memory()
                fused_forward_backward(
                    network.user_embeddings.weight.data,
                    network.item_embeddings.weight.data,
                    network.user_projections.data,
                    network.item_projections.data,
                    network.facet_logits.data,
                    users, positives, negatives, model.margins_[users],
                    lambda_pull=config.lambda_pull,
                    lambda_facet=config.lambda_facet, alpha=config.alpha,
                    spherical=True)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
                tracemalloc.stop()
        assert peaks[0] > 4e6, "the first step fills the buffers"
        assert np.median(peaks[1:]) < 2e6, peaks


class TestTraceContract:
    def test_kernel_is_reachable_where_the_trace_hooks_it(self):
        assert _multifacet.fused_forward_backward is fused.fused_forward_backward

    def test_one_step_scatters_through_the_module_global(self, monkeypatch):
        calls = []
        scatter = fused.scatter_rows

        def counting(*args):
            calls.append(args[0].size)
            return scatter(*args)

        monkeypatch.setattr(fused, "scatter_rows", counting)
        model = _make_model(MARS, 30, 40, 0, n_facets=3, embedding_dim=8)
        batch = _random_batch(np.random.default_rng(0), 30, 40)
        model._train_step(batch, model._make_optimizer(model.network))
        assert calls == [batch.users.size, 2 * batch.users.size]


class TestFusedSpeedup:
    @pytest.mark.slow
    def test_fused_step_at_least_3x_faster_than_autograd(self):
        """Per-step speedup at MARS full-preset shapes (K=4, D=32, B=256).

        The two engines are timed in interleaved best-of rounds so transient
        machine load skews both measurements alike.
        """
        n_users, n_items, steps = 240, 300, 50
        rng = np.random.default_rng(0)
        batches = [
            TripletBatch(users=rng.integers(0, n_users, 256),
                         positives=rng.integers(0, n_items, 256),
                         negatives=rng.integers(0, n_items, 256))
            for _ in range(steps)
        ]

        runners = {}
        for engine in ("fused", "autograd"):
            model = _make_model(MARS, n_users, n_items, 0, n_facets=4,
                                embedding_dim=32, batch_size=256, engine=engine)
            model.margins_ = np.full(n_users, 0.5)
            optimizer = model._make_optimizer(model.network)
            model._train_step(batches[0], optimizer)   # warm-up
            runners[engine] = (model, optimizer)

        best = {"fused": np.inf, "autograd": np.inf}
        for _ in range(5):
            for engine, (model, optimizer) in runners.items():
                start = time.perf_counter()
                for batch in batches:
                    model._train_step(batch, optimizer)
                best[engine] = min(best[engine], time.perf_counter() - start)

        assert best["autograd"] >= 3.0 * best["fused"], (
            f"fused step only {best['autograd'] / best['fused']:.2f}x faster "
            f"({best['fused'] / steps * 1e3:.2f}ms vs "
            f"{best['autograd'] / steps * 1e3:.2f}ms)")
