"""Unified training runtime shared by every triplet-trained model.

Historically :class:`~repro.core._multifacet.MultiFacetRecommender` and
:class:`~repro.baselines._embedding_base.EmbeddingRecommender` each owned a
private copy of the same epoch loop — batcher construction, the epoch/batch
iteration, loss accumulation, verbose logging and ``loss_history_``.  This
module hoists that loop into one place, :class:`TrainingLoop`, behind the
small :class:`TrainableModel` protocol (``make_batcher``, ``make_optimizer``,
``train_step`` plus the ``_on_epoch_start`` epoch hook), and adds the layer
the duplicated loops could never host: a pluggable *executor*.

Executors
---------
``executor="serial"`` (default)
    One batcher, one thread, batches consumed in order.  Loop-for-loop
    bit-identical to the pre-runtime hand-rolled loops: the batcher is
    built with the same arguments, draws from the same stream, and the
    steps are applied in the same order (certified in
    ``tests/test_training_runtime.py`` against reference reimplementations
    of the old loops).  Note the *kernels* under the loop may still evolve
    between releases — the same PR that introduced the runtime also changed
    :func:`~repro.core.fused.scatter_rows`' summation order by ~1e-15 per
    element — so seeded outputs are pinned within a release, not across
    releases.

``executor="sharded"``
    Hogwild-style lock-free parallel epochs.  The active users are
    partitioned into ``n_shards`` disjoint, degree-balanced shards
    (:func:`partition_users`); each shard gets its own
    :class:`~repro.data.batching.TripletBatcher` restricted to its users
    (``user_subset``) with an independent spawned RNG stream
    (:func:`repro.utils.rng.spawn_generators`, built on
    ``np.random.SeedSequence.spawn``), and every epoch runs the shard
    sub-epochs concurrently on a ``ThreadPoolExecutor``.  No locks are
    taken around parameter updates.

Why lock-free updates are safe here (the Hogwild argument):

* user-side state (user embedding rows, facet-weight logit rows, the
  per-user Adagrad accumulator rows) is only ever written by the shard that
  owns the user, because shards are disjoint and every fused kernel applies
  row-restricted updates (``optimizer.step_rows``) to exactly the batch's
  user rows;
* item rows are shared, so two shards can race on an item row the way the
  original Hogwild scheme races on shared coordinates — updates are sparse
  row writes, collisions are rare at catalogue scale, and a lost or torn
  item update perturbs a trajectory that SGD noise perturbs far more;
* the multifacet models additionally share small *dense* parameters (the
  ``(K, D, D)`` projection stacks), which every shard updates in place on
  every step — constant elementwise contention rather than rare row
  collisions, tolerated because each update is tiny relative to the
  tensor; this is the main source of the statistical (not bitwise)
  equivalence of ``n_shards > 1`` runs;
* the heavy lifting of a fused step is NumPy/BLAS code that releases the
  GIL, which is what lets threads actually overlap.

The determinism contract follows from the construction: ``n_shards=1``
builds the one batcher exactly like the serial executor (root stream, no
``user_subset``) and is therefore bit-identical to it, while ``n_shards>1``
is only statistically equivalent — loss curves agree to a few percent and
evaluation metrics to noise level, but thread interleaving makes individual
runs non-reproducible.  Sharded execution therefore requires the fused
engine; the autograd engine's dense ``.grad`` buffers and full-table
optimizer steps would race destructively rather than Hogwild-tolerably.

The loop is *resumable*: ``run(n)`` may be called repeatedly and continues
the same batcher streams and optimizer state, which is what lets
:class:`~repro.training.trainer.Trainer` warm-start validation rounds
instead of retraining from scratch every round.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, runtime_checkable

import numpy as np

from repro.autograd.optim import Optimizer
from repro.data.batching import TripletBatch, TripletBatcher
from repro.data.interactions import InteractionMatrix
from repro.reliability.faults import fire as _fire
from repro.utils.io import pack_scalar, unpack_scalar
from repro.utils.logging import get_logger, scoped_info
from repro.utils.rng import RandomState, spawn_generators
from repro.utils.validation import check_positive_int
from repro.utils.workspace import workspace_scope

#: Executor names accepted by :class:`TrainingLoop` (and the ``executor``
#: knobs on :class:`~repro.core.config.MARConfig` and
#: :class:`~repro.baselines._embedding_base.EmbeddingRecommender`).
EXECUTORS = ("serial", "sharded")


def validate_executor(executor: str, n_shards: int,
                      engine: Optional[str] = None) -> None:
    """Validate an executor configuration (the one shared rule set).

    Used by :class:`TrainingLoop`, the model configs and the checkpoint
    restore path, so the executor whitelist and the sharding/engine
    compatibility rule live in exactly one place.  ``engine=None`` skips
    the engine compatibility check (for callers that have no engine knob).
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    check_positive_int(n_shards, "n_shards")
    if engine is not None and executor == "sharded" and n_shards > 1 \
            and engine != "fused":
        # The autograd engine accumulates into shared dense .grad buffers
        # and steps whole tables, which races destructively across shard
        # threads; only fused row-sparse updates satisfy the Hogwild
        # safety argument.
        raise ValueError("executor='sharded' with n_shards > 1 requires "
                         "engine='fused'")


@runtime_checkable
class TrainableModel(Protocol):
    """What a model must expose to train under :class:`TrainingLoop`.

    Both model families implement this by delegating to the hooks they
    already had (``_train_step``, ``_make_optimizer``, ``_on_epoch_start``);
    the protocol only fixes the names the runtime calls.
    """

    #: Human-readable name used in verbose epoch logs.
    name: str
    #: Per-epoch mean losses; the runtime appends one entry per epoch.
    loss_history_: List[float]
    #: Seed the sharded executor spawns per-shard streams from.
    random_state: RandomState

    def make_batcher(self, interactions: InteractionMatrix, *,
                     user_subset: Optional[np.ndarray] = None,
                     random_state: RandomState = None) -> TripletBatcher:
        """Batcher over ``interactions`` with the model's sampling settings.

        ``random_state=None`` means the model's own configured seed (the
        serial executor's choice); the sharded executor passes an explicit
        spawned generator per shard.
        """
        ...

    def make_optimizer(self) -> Optimizer:
        """Fresh optimizer over the model's (already built) parameters."""
        ...

    def train_step(self, batch: TripletBatch, optimizer: Optimizer) -> float:
        """One gradient step on a triplet batch; returns the batch loss."""
        ...

    def _on_epoch_start(self, epoch: int, interactions: InteractionMatrix) -> None:
        """Hook before each epoch (e.g. refresh cached neighbourhoods)."""
        ...


@dataclass
class EpochReport:
    """Outcome of one epoch under the runtime."""

    #: Zero-based global epoch index (monotonic across resumed runs).
    epoch: int
    #: Batch-mean loss over every shard's batches.
    mean_loss: float
    #: Total batches consumed this epoch (summed over shards).
    n_batches: int
    #: Wall-clock seconds the epoch took.
    duration: float
    #: Per-shard batch-mean losses (``None`` under a single batcher).
    shard_losses: Optional[List[float]] = None
    #: Per-table write-audit summary (``None`` unless the loop runs with
    #: ``audit=True`` / ``REPRO_AUDIT=1``); see :class:`HogwildWriteAuditor`.
    audit: Optional[Dict[str, dict]] = None


def partition_users(interactions: InteractionMatrix,
                    n_shards: int) -> List[np.ndarray]:
    """Split the active users into disjoint, degree-balanced shards.

    Users with at least one interaction are sorted by interaction count
    (descending, ties by id for determinism) and dealt round-robin, so every
    shard carries roughly the same number of training interactions — the
    quantity that sets a shard's epoch length.  The shards are pairwise
    disjoint and their union is exactly the active-user set, which is the
    property the Hogwild safety argument rests on.
    """
    check_positive_int(n_shards, "n_shards")
    degrees = interactions.user_degrees()
    active = np.flatnonzero(degrees > 0)
    if active.size < n_shards:
        raise ValueError(
            f"cannot split {active.size} active users into {n_shards} shards")
    order = active[np.argsort(-degrees[active], kind="stable")]
    return [np.sort(order[shard::n_shards]) for shard in range(n_shards)]


class HogwildAuditError(AssertionError):
    """A shard wrote a user-partitioned parameter row owned by another shard.

    Raised at epoch end by :class:`HogwildWriteAuditor` — the runtime
    counterpart of the static ``HOGWILD-SAFETY`` rule.  The static rule can
    prove updates are *in place*; only observing the actual row traffic can
    prove they are *shard-disjoint*, which is the other half of the Hogwild
    safety argument in the module docstring.
    """


class HogwildWriteAuditor:
    """Records which rows each shard writes per parameter table.

    Enabled via ``TrainingLoop(..., audit=True)`` (or ``REPRO_AUDIT=1``).
    The loop wraps its optimizer in :class:`_AuditingOptimizer`, binds each
    shard's worker thread to its shard index at sub-epoch start (a pool
    thread can run two shards sequentially, so raw thread identity is not
    the right key), and at epoch end calls :meth:`finish_epoch`, which

    * classifies each table as *user-partitioned* (first axis length equals
      ``n_users``) or *shared* (item tables, dense projection stacks);
    * asserts that the per-shard written row-sets of every user-partitioned
      table are pairwise disjoint, raising :class:`HogwildAuditError`
      otherwise — user rows are exactly what the sharded executor promises
      never to race on;
    * reports (but tolerates) cross-shard collisions on shared tables and
      counts whole-table :meth:`Optimizer.step_dense` updates, which are
      expected for the small dense parameters;
    * returns the per-table summary that lands on ``EpochReport.audit``.

    When ``n_users == n_items`` an item table is indistinguishable from a
    user table by shape and would be audited strictly; no shipped preset
    has square interaction matrices, and the strict direction only
    over-reports, never under-reports.
    """

    def __init__(self, optimizer: Optimizer, n_shards: int, n_users: int,
                 table_names: Optional[Dict[int, str]] = None) -> None:
        self.n_shards = n_shards
        self.n_users = n_users
        self._names = dict(table_names or {})
        self._parameters = {id(p): p for p in optimizer.parameters}
        self._local = threading.local()
        self._lock = threading.Lock()
        # table id -> shard index -> set of written row indices
        self._rows: Dict[int, List[set]] = {}
        # table id -> shard index -> dense update count
        self._dense: Dict[int, List[int]] = {}

    # -- thread binding ------------------------------------------------- #
    def bind_shard(self, shard_index: int) -> None:
        """Attribute subsequent writes on this thread to ``shard_index``."""
        self._local.shard = shard_index

    @property
    def _shard(self) -> int:
        return getattr(self._local, "shard", 0)

    # -- recording (called from shard threads via _AuditingOptimizer) --- #
    def _slots(self, table: Dict[int, list], parameter, empty) -> list:
        key = id(parameter)
        slots = table.get(key)
        if slots is None:
            with self._lock:
                slots = table.setdefault(
                    key, [empty() for _ in range(self.n_shards)])
        return slots

    def record_rows(self, parameter, rows: np.ndarray) -> None:
        slots = self._slots(self._rows, parameter, set)
        slots[self._shard].update(np.asarray(rows).ravel().tolist())

    def record_dense(self, parameter) -> None:
        slots = self._slots(self._dense, parameter, int)
        # int slots are per-shard, so the unlocked increment is race-free.
        slots[self._shard] += 1

    # -- epoch-end verdict ---------------------------------------------- #
    def _name(self, key: int) -> str:
        parameter = self._parameters.get(key)
        shape = getattr(getattr(parameter, "data", None), "shape", ())
        return self._names.get(key, f"param{key % 10000}{list(shape)}")

    def _is_user_table(self, key: int) -> bool:
        parameter = self._parameters.get(key)
        data = getattr(parameter, "data", None)
        return data is not None and data.ndim >= 1 \
            and data.shape[0] == self.n_users

    def finish_epoch(self) -> Dict[str, dict]:
        """Summarise and reset the epoch's writes; raise on unsafe races."""
        summary: Dict[str, dict] = {}
        errors: List[str] = []
        keys = set(self._rows) | set(self._dense)
        for key in sorted(keys, key=self._name):
            name = self._name(key)
            shard_sets = self._rows.get(key, [])
            written = set().union(*shard_sets) if shard_sets else set()
            collisions = 0
            for i in range(len(shard_sets)):
                for j in range(i + 1, len(shard_sets)):
                    collisions += len(shard_sets[i] & shard_sets[j])
            kind = "user" if self._is_user_table(key) else "shared"
            if kind == "user" and collisions:
                errors.append(f"{name}: {collisions} cross-shard row "
                              "collision(s)")
            summary[name] = {
                "kind": kind,
                "rows_written": len(written),
                "cross_shard_collisions": collisions,
                "dense_updates": sum(self._dense.get(key, [])),
            }
        self._rows.clear()
        self._dense.clear()
        if errors:
            raise HogwildAuditError(
                "shards wrote overlapping rows of user-partitioned tables "
                "(the sharded executor's disjointness contract): "
                + "; ".join(errors))
        return summary


class _AuditingOptimizer:
    """Transparent optimizer proxy that reports row writes to an auditor.

    Only the two out-of-band entry points are intercepted — they are the
    sole write path of the fused engine, the only engine the sharded
    executor admits.  Everything else (``lr``, ``parameters``, ``step``,
    ``zero_grad``, optimizer state) is delegated untouched, so training
    numerics are bit-identical with auditing on.
    """

    def __init__(self, optimizer: Optimizer, auditor: HogwildWriteAuditor) -> None:
        self._optimizer = optimizer
        self._auditor = auditor

    def __getattr__(self, name):
        return getattr(self._optimizer, name)

    def step_rows(self, parameter, rows, row_grads) -> None:
        self._auditor.record_rows(parameter, rows)
        self._optimizer.step_rows(parameter, rows, row_grads)

    def step_dense(self, parameter, grad) -> None:
        self._auditor.record_dense(parameter)
        self._optimizer.step_dense(parameter, grad)


def _audit_from_env() -> bool:
    """The ``REPRO_AUDIT`` escape hatch: audit any run without code changes."""
    return os.environ.get("REPRO_AUDIT", "").strip().lower() \
        in {"1", "true", "yes", "on"}


class TrainingLoop:
    """The shared epoch/batch loop with pluggable executors.

    Parameters
    ----------
    model:
        A :class:`TrainableModel` whose parameters are already built (the
        model's ``_fit`` constructs its network *before* handing over).
    interactions:
        Training interaction matrix.
    executor:
        ``"serial"`` or ``"sharded"`` (see the module docstring).
    n_shards:
        Number of disjoint user shards under the sharded executor; ignored
        by the serial one.  ``n_shards=1`` is bit-identical to serial.
    verbose:
        Log one INFO line per epoch.  The level change is scoped to
        :meth:`run` (restored on exit), so a verbose fit does not leave the
        logger chatty for later models.
    logger:
        Logger the epoch lines go to; defaults to ``repro.training.loop``.
        Models pass their own module logger so log namespaces stay stable.
    audit:
        Enable the :class:`HogwildWriteAuditor`: record per-shard written
        row-sets per parameter table, assert shard-disjointness of
        user-partitioned tables at every epoch end (raising
        :class:`HogwildAuditError` on a violation) and surface the
        per-table counts on ``EpochReport.audit``.  ``None`` (the default)
        defers to the ``REPRO_AUDIT`` environment variable, so any run can
        be audited without touching code.  Auditing does not change
        training numerics — the proxy only observes the update calls.
    checkpoint:
        A :class:`~repro.training.checkpoint.CheckpointManager`: after every
        epoch it deems ``due``, the loop persists parameters, optimizer
        state and batcher RNG streams atomically, so a killed run resumes
        from its last good checkpoint (bitwise-identically under the serial
        executor).  ``None`` (the default) falls back to
        ``model.checkpoint`` when the model carries one, else disables
        checkpointing.

    Notes
    -----
    The loop owns the batcher(s) and the optimizer and keeps them across
    :meth:`run` calls, so repeated calls *resume* training — same sample
    streams, same optimizer state — rather than restart it.  ``reports``
    accumulates one :class:`EpochReport` per epoch ever run.  Resumability
    has a memory cost: the optimizer state (for Adagrad a full
    table-shaped accumulator) and the per-shard samplers stay referenced
    by the fitted model; call :meth:`release` when a model will only be
    served.
    """

    def __init__(self, model: TrainableModel, interactions: InteractionMatrix,
                 *, executor: str = "serial", n_shards: int = 1,
                 verbose: bool = False, logger=None,
                 audit: Optional[bool] = None, checkpoint=None) -> None:
        validate_executor(executor, n_shards)
        self.model = model
        self.interactions = interactions
        self.executor = executor
        self.n_shards = n_shards if executor == "sharded" else 1
        self.verbose = verbose
        self.audit = _audit_from_env() if audit is None else bool(audit)
        self._checkpoint = (checkpoint if checkpoint is not None
                            else getattr(model, "checkpoint", None))
        self._logger = logger if logger is not None else get_logger("training.loop")
        self.reports: List[EpochReport] = []
        self.epoch_ = 0
        self.shards_: Optional[List[np.ndarray]] = None
        self._optimizer: Optional[Optimizer] = None
        self._batchers: Optional[List[TripletBatcher]] = None
        self._auditor: Optional[HogwildWriteAuditor] = None

    # ------------------------------------------------------------------ #
    @property
    def optimizer(self) -> Optimizer:
        """The loop's optimizer (created on first :meth:`run`)."""
        self._ensure_state()
        return self._optimizer

    def release(self) -> None:
        """Drop the batchers and optimizer to free their memory.

        A resumable loop pins the training interactions, one negative
        sampler per shard and the optimizer state for the fitted model's
        lifetime; serving-only deployments that will never call
        :meth:`run` / ``fit_more`` again can release it.  A released loop
        refuses further :meth:`run` calls rather than silently restarting
        the sample streams.
        """
        self._released = True
        self._optimizer = None
        self._batchers = None
        self._auditor = None

    def _ensure_state(self) -> None:
        if getattr(self, "_released", False):
            raise RuntimeError(
                "this training loop was released; fit the model again to "
                "continue training")
        if self._optimizer is not None:
            return
        self._optimizer = self.model.make_optimizer()
        if self.audit:
            names: Dict[int, str] = {}
            network = getattr(self.model, "network", None)
            if network is not None and hasattr(network, "named_parameters"):
                names = {id(parameter): name
                         for name, parameter in network.named_parameters()}
            self._auditor = HogwildWriteAuditor(
                self._optimizer, self.n_shards, self.interactions.n_users,
                table_names=names)
            self._optimizer = _AuditingOptimizer(self._optimizer, self._auditor)
        if self.n_shards > 1:
            self.shards_ = partition_users(self.interactions, self.n_shards)
            streams = spawn_generators(self.model.random_state, self.n_shards)
            self._batchers = [
                self.model.make_batcher(self.interactions, user_subset=shard,
                                        random_state=stream)
                for shard, stream in zip(self.shards_, streams)
            ]
        else:
            # Serial — and sharded with a single shard, which is required to
            # be bit-identical to serial: one batcher over the full user
            # population on the model's root stream, no subset restriction.
            self._batchers = [self.model.make_batcher(self.interactions)]

    # ------------------------------------------------------------------ #
    def refresh_data(self, random_state: RandomState = None) -> None:
        """Re-sync the loop after its interaction matrix mutated in place.

        Streaming ingestion appends interactions (possibly growing the
        user/item population) to the same :class:`InteractionMatrix` this
        loop trains on.  This hook makes the already-built training state
        catch up:

        * optimizer state is row-padded to any grown parameter tables
          (:meth:`~repro.autograd.optim.Optimizer.grow_state`);
        * under the sharded executor, users are re-partitioned (new users
          must belong to exactly one shard for the Hogwild disjointness
          argument) and each shard's batcher is rebuilt on a fresh spawned
          stream from ``random_state`` (the model's root seed when
          ``None``);
        * under the serial executor the single batcher re-snapshots itself
          lazily off the matrix's version counter, so it is only rebuilt —
          on a fresh stream — when an explicit ``random_state`` is given
          (what :class:`~repro.streaming.online.StreamingTrainer` passes
          per refresh, keeping RNG-DISCIPLINE: one spawned stream per
          refresh instead of a reused root stream).

        A loop that has never run (no optimizer yet) needs no catch-up: its
        first :meth:`run` builds everything against the current matrix.
        """
        if getattr(self, "_released", False):
            raise RuntimeError(
                "this training loop was released; fit the model again to "
                "continue training")
        if self._optimizer is None:
            return
        self._optimizer.grow_state()
        if self._auditor is not None:
            self._auditor.n_users = self.interactions.n_users
        if self.n_shards > 1:
            self.shards_ = partition_users(self.interactions, self.n_shards)
            streams = spawn_generators(
                self.model.random_state if random_state is None else random_state,
                self.n_shards)
            self._batchers = [
                self.model.make_batcher(self.interactions, user_subset=shard,
                                        random_state=stream)
                for shard, stream in zip(self.shards_, streams)
            ]
        elif random_state is not None:
            self._batchers = [
                self.model.make_batcher(self.interactions,
                                        random_state=random_state)]

    # ------------------------------------------------------------------ #
    def run(self, n_epochs: int) -> List[EpochReport]:
        """Train for ``n_epochs`` more epochs; returns their reports.

        Appends one batch-mean loss per epoch to ``model.loss_history_``
        (the contract every pre-runtime loop honoured) and logs one INFO
        line per epoch when ``verbose``.
        """
        check_positive_int(n_epochs, "n_epochs")
        self._ensure_state()
        target = self.epoch_ + n_epochs
        new_reports: List[EpochReport] = []
        scope = scoped_info(self._logger) if self.verbose else nullcontext()
        # Step buffers live for this run on this thread (the serial
        # executor's steps run here); shard threads open their own.
        with scope, workspace_scope():
            for _ in range(n_epochs):
                report = self._run_epoch(self.epoch_)
                self.epoch_ += 1
                self.reports.append(report)
                new_reports.append(report)
                self.model.loss_history_.append(report.mean_loss)
                if self._checkpoint is not None \
                        and self._checkpoint.due(self.epoch_):
                    self._checkpoint.save(self)
                if self.verbose:
                    self._logger.info("%s epoch %d/%d loss %.4f",
                                      self.model.name, report.epoch + 1,
                                      target, report.mean_loss)
        return new_reports

    def _run_epoch(self, epoch: int) -> EpochReport:
        self.model._on_epoch_start(epoch, self.interactions)
        start = time.perf_counter()
        if len(self._batchers) == 1:
            shard_totals = [self._shard_epoch(self._batchers[0], 0)]
        else:
            with ThreadPoolExecutor(max_workers=len(self._batchers)) as pool:
                futures = [pool.submit(self._shard_epoch, batcher, shard)
                           for shard, batcher in enumerate(self._batchers)]
                shard_totals = [future.result() for future in futures]
        duration = time.perf_counter() - start
        audit = self._auditor.finish_epoch() if self._auditor is not None else None
        n_batches = sum(count for _, count in shard_totals)
        total_loss = sum(loss for loss, _ in shard_totals)
        shard_losses = None
        if len(shard_totals) > 1:
            shard_losses = [loss / max(count, 1) for loss, count in shard_totals]
        return EpochReport(
            epoch=epoch,
            mean_loss=total_loss / max(n_batches, 1),
            n_batches=n_batches,
            duration=duration,
            shard_losses=shard_losses,
            audit=audit,
        )

    def _shard_epoch(self, batcher: TripletBatcher, shard: int):
        """One shard's sub-epoch; returns ``(loss_sum, n_batches)``.

        The worker thread is (re)bound to its shard index up front: pool
        threads are reused, so a thread that ran shard 0 last epoch may run
        shard 2 this epoch, and the auditor must attribute writes to the
        *shard*, not the thread.

        The steps run inside a :func:`~repro.utils.workspace.workspace_scope`:
        on a shard thread that gives the sub-epoch its own step buffers; on
        the calling thread (serial executor) it reuses the run's.
        """
        if self._auditor is not None:
            self._auditor.bind_shard(shard)
        total, count = 0.0, 0
        with workspace_scope():
            for batch in batcher.epoch():
                _fire("training.step")
                total += self.model.train_step(batch, self._optimizer)
                count += 1
        return total, count

    # ------------------------------------------------------------------ #
    # checkpoint state (consumed by training.checkpoint.CheckpointManager)
    # ------------------------------------------------------------------ #
    def capture_state(self) -> Dict[str, np.ndarray]:
        """The loop's durable training state as named pickle-free arrays.

        Covers everything :meth:`run` consumes beyond the model parameters:
        optimizer state (``optimizer.*``), each batcher stream's exact
        bit-generator state (``rng.<shard>``, JSON-encoded — one stream
        also drives that batcher's negative/user samplers, because
        :class:`~repro.data.batching.TripletBatcher` shares its generator
        with them), the completed-epoch count and the loss history.
        """
        self._ensure_state()
        state: Dict[str, np.ndarray] = {
            "epoch": pack_scalar(self.epoch_),
            "loss_history": np.asarray(self.model.loss_history_,
                                       dtype=np.float64),
        }
        for name, value in self._optimizer.state_dict().items():
            state[f"optimizer.{name}"] = value
        for shard, batcher in enumerate(self._batchers):
            state[f"rng.{shard}"] = pack_scalar(
                json.dumps(batcher._rng.bit_generator.state))
        return state

    def restore_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`capture_state` output into a freshly built loop.

        Call order matters: the model's parameters must already be loaded
        (``set_parameters`` rebinds ``parameter.data``, and the optimizer
        state restored here is validated against the live parameter
        shapes), and the loop must not have run yet.
        """
        self._ensure_state()
        rng_keys = [name for name in state if name.startswith("rng.")]
        if len(rng_keys) != len(self._batchers):
            raise ValueError(
                f"checkpoint carries {len(rng_keys)} batcher stream(s) but "
                f"this loop has {len(self._batchers)} — executor/n_shards "
                "mismatch")
        self._optimizer.load_state_dict(
            {name[len("optimizer."):]: value
             for name, value in state.items()
             if name.startswith("optimizer.")})
        for shard, batcher in enumerate(self._batchers):
            batcher._rng.bit_generator.state = json.loads(
                unpack_scalar(state[f"rng.{shard}"]))
        self.epoch_ = int(unpack_scalar(state["epoch"]))
        self.model.loss_history_[:] = [
            float(loss) for loss in np.asarray(state["loss_history"]).ravel()]


class RuntimeTrainedModel:
    """Mixin for models whose ``_fit`` delegates to :class:`TrainingLoop`.

    Provides the resumable-training surface: after :meth:`fit` the loop is
    kept on ``runtime_``, and :meth:`fit_more` continues it — same batcher
    streams, same optimizer state — which is what
    :class:`~repro.training.trainer.Trainer` warm-starts rounds with.
    Serving-only deployments can call ``model.runtime_.release()`` after
    fitting to drop the loop's batchers and optimizer state.
    """

    #: The loop of the latest ``fit`` call (``None`` before fitting, and on
    #: models restored from a checkpoint without retraining).
    runtime_: Optional[TrainingLoop] = None

    def fit_more(self, n_epochs: int):
        """Resume training for ``n_epochs`` additional epochs.

        Continuing a seeded serial run for ``k`` epochs produces exactly the
        state a fresh fit with ``n_epochs + k`` epochs would have reached:
        the loop keeps its batcher streams and optimizer state, so nothing
        restarts.
        """
        if self.runtime_ is None:
            raise RuntimeError(
                f"{type(self).__name__} must be fitted before fit_more "
                "(a loaded checkpoint carries no resumable training state)")
        self.runtime_.run(n_epochs)
        return self
