"""The six execution settings every sharded runner takes, as one value.

Runners accept them as keywords, build one :class:`ExecOptions` —
validated here, once — and hand it to the sharded engine; the value
also applies the public ``raise``/``skip`` return contract, which
:func:`_public_runner` wraps around every runner once.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ExecutionError
from .checkpoint import CheckpointStore
from .retry import FailureReport, RetryPolicy

__all__ = ["ExecOptions"]


@dataclass(frozen=True)
class ExecOptions:
    """How a sharded run executes: parallelism, chunking, fault handling.

    - ``jobs`` — worker processes; ``1`` runs every chunk inline.
    - ``chunk_size`` — scenarios per chunk; ``None`` picks one chunk
      (inline) or one chunk per job (pooled).
    - ``retries`` — a :class:`~repro.exec.retry.RetryPolicy`, an int
      (that many retries after the first attempt), or ``None`` (one
      attempt); stored as the coerced policy. Backoff is deterministic.
    - ``timeout`` — per-chunk wall-clock seconds; a chunk running past
      it is charged a failed attempt and its pool is rebuilt. Needs
      ``jobs > 1``: inline chunks run on the calling thread and cannot
      be cancelled.
    - ``on_error`` — ``"raise"`` surfaces the lowest-index exhausted
      chunk: with no retry budget a chunk kernel's own exception
      propagates unchanged, otherwise (and for crashes, timeouts and
      corrupt results) a structured
      :class:`~repro.errors.ChunkFailedError`. ``"skip"`` returns
      ``(partial_result, FailureReport)``, raising only if no chunk
      completed at all.
    - ``checkpoint`` — a :class:`~repro.exec.checkpoint.CheckpointStore`;
      finished chunks of multi-chunk runs persist as they land, are
      prefilled from a consume-mode store, and are removed after a
      fully successful run.

    An options value unpacks back into the keyword form, so it can be
    forwarded to any public runner: ``run_sweep(name, **options)``.
    """

    jobs: int = 1
    chunk_size: "int | None" = None
    retries: "RetryPolicy | int | None" = None
    timeout: "float | None" = None
    on_error: str = "raise"
    checkpoint: "CheckpointStore | None" = None

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            raise ExecutionError(f"job count must be positive, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ExecutionError(
                f"chunk size must be positive, got {self.chunk_size}"
            )
        if self.on_error not in ("raise", "skip"):
            raise ExecutionError(
                f"on_error must be 'raise' or 'skip', got {self.on_error!r}"
            )
        if self.timeout is not None:
            if self.timeout <= 0:
                raise ExecutionError(
                    f"per-chunk timeout must be positive, got {self.timeout}"
                )
            if self.jobs == 1:
                raise ExecutionError(
                    "a per-chunk timeout needs jobs > 1: inline chunks run on "
                    "the calling thread and cannot be cancelled"
                )
        object.__setattr__(self, "retries", RetryPolicy.coerce(self.retries))

    def keys(self) -> list[str]:
        """The setting names, so ``**options`` yields the keyword form."""
        return [field.name for field in dataclasses.fields(self)]

    def __getitem__(self, name: str) -> Any:
        return getattr(self, name)

    def finish(self, result: Any, report: FailureReport) -> Any:
        """The public return value of a run that produced ``(result, report)``."""
        return (result, report) if self.on_error == "skip" else result


def _public_runner(run: Callable[..., Any]) -> Callable[..., Any]:
    """The public form of ``run``, which takes an :class:`ExecOptions`
    value as its keyword ``options`` and returns the internal
    ``(result, FailureReport)`` pair.

    The public function takes the settings as ``**options`` keywords
    instead (a misspelled one is a ``TypeError`` naming it) and returns
    what :meth:`ExecOptions.finish` makes of the pair. Its
    ``__wrapped__`` is ``run``, for callers inside the layer.
    """
    settings = {field.name for field in dataclasses.fields(ExecOptions)}

    @functools.wraps(run)
    def public(*args: Any, **kwargs: Any) -> Any:
        options = ExecOptions(
            **{name: kwargs.pop(name) for name in settings & kwargs.keys()}
        )
        return options.finish(*run(*args, options=options, **kwargs))

    signature = inspect.signature(run)
    public.__signature__ = signature.replace(  # type: ignore[attr-defined]
        parameters=[
            *(p for p in signature.parameters.values() if p.name != "options"),
            inspect.Parameter(
                "options", inspect.Parameter.VAR_KEYWORD, annotation="Any"
            ),
        ],
        return_annotation=inspect.Signature.empty,
    )
    return public
