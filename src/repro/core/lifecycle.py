"""The instance-lifecycle API (the controller's ``instances`` facade).

``controller.instances`` is an :class:`InstanceManager` — a read-only
mapping of ``name -> DPIServiceInstance`` that also owns every lifecycle
verb:

* :meth:`InstanceManager.provision` — build a validated configuration and
  spawn an instance (optionally specialized to a chain group or flagged as
  a *dedicated* MCA² engine);
* :meth:`InstanceManager.decommission` — tear an instance down and drop
  its registry metrics;
* :meth:`InstanceManager.plan_groups` — group similar policy chains and
  provision one specialized instance per group (Section 4.3);
* :meth:`InstanceManager.refresh` — push updated configurations after
  pattern or chain changes;
* :meth:`InstanceManager.build_config` — the configuration alone, without
  spawning anything.

All verbs are keyword-only past the instance name, so call sites read as
declarations.  The engine option (``kernel``) is never named here: every
verb forwards ``**engine`` to :class:`~repro.core.instance.InstanceConfig`,
which alone declares, defaults and validates it — a misspelt option is its
``TypeError``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.instance import DPIServiceInstance, InstanceConfig
from repro.core.kernels import EngineConfigError
from repro.validation import raise_on_errors, validate_instance_config

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.controller import DPIController


def jaccard_similarity(set_a: set, set_b: set) -> float:
    """Similarity of two chains' middlebox sets (1.0 = identical)."""
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def group_chains_by_similarity(
    chain_map: dict, max_groups: int, min_similarity: float = 0.0
) -> list[list]:
    """Greedy agglomerative grouping of policy chains.

    ``chain_map`` maps chain id -> iterable of middlebox ids.  Starting from
    one group per chain, the two groups whose middlebox sets are most
    similar merge, until *max_groups* remain or the best similarity drops
    below *min_similarity*.  Returns a list of chain-id lists.
    """
    if max_groups < 1:
        raise ValueError(f"max_groups must be >= 1, got {max_groups}")
    groups = [
        {"chains": [chain_id], "middleboxes": set(middleboxes)}
        for chain_id, middleboxes in sorted(chain_map.items())
    ]
    while len(groups) > max_groups:
        best = None
        best_similarity = -1.0
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                similarity = jaccard_similarity(
                    groups[i]["middleboxes"], groups[j]["middleboxes"]
                )
                if similarity > best_similarity:
                    best_similarity = similarity
                    best = (i, j)
        if best is None or best_similarity < min_similarity:
            break
        i, j = best
        groups[i]["chains"].extend(groups[j]["chains"])
        groups[i]["middleboxes"] |= groups[j]["middleboxes"]
        del groups[j]
    return [sorted(group["chains"]) for group in groups]


class InstanceManager(Mapping[str, DPIServiceInstance]):
    """Owns the controller's DPI service instances and their lifecycle.

    The mapping interface is read-only (``manager["dpi-1"]``, ``len``,
    ``in``, iteration in insertion order); every mutation goes through a
    lifecycle verb so the controller can keep chain filters, telemetry
    labels and dedicated-engine bookkeeping consistent.
    """

    def __init__(self, controller: "DPIController") -> None:
        self._controller = controller
        self._by_name: dict[str, DPIServiceInstance] = {}
        self._chain_filter: dict[str, tuple | None] = {}
        self._dedicated: dict[str, bool] = {}

    # --- mapping interface ------------------------------------------------

    def __getitem__(self, name: str) -> DPIServiceInstance:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no instance named {name}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        # Kept dict-comparable so callers that treated the old attribute as
        # a plain dict (`controller.instances == {}`) keep working.
        if isinstance(other, InstanceManager):
            return self._by_name == other._by_name
        if isinstance(other, Mapping):
            return self._by_name == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<InstanceManager {sorted(self._by_name)}>"

    # --- configuration ----------------------------------------------------

    def _served(self, chain_ids: "Sequence[int] | None") -> dict[str, Any]:
        """The ``pattern_sets`` / ``profiles`` / ``chain_map`` fields of a
        configuration serving *chain_ids*, from the controller's current
        registrations."""
        controller = self._controller
        chain_map = controller.chain_map(chain_ids)
        needed: set[int] = set()
        for middlebox_ids in chain_map.values():
            needed.update(middlebox_ids)
        if chain_ids is None and not chain_map:
            # No chains known yet: serve every registered middlebox through
            # an implicit chain per middlebox (useful for direct API use).
            needed = set(controller.middlebox_ids)
        return {
            "pattern_sets": {
                middlebox_id: list(controller.pattern_set_of(middlebox_id))
                for middlebox_id in sorted(needed)
            },
            "profiles": {
                middlebox_id: controller.profile_of(middlebox_id)
                for middlebox_id in sorted(needed)
            },
            "chain_map": chain_map,
        }

    def build_config(
        self, *, chain_ids: "Sequence[int] | None" = None, **engine: Any
    ) -> InstanceConfig:
        """The configuration for an instance serving *chain_ids* (None =
        every chain).  Only middleboxes on the selected chains are included
        (Section 4.3: instances specialized per chain group); ``**engine``
        are :class:`InstanceConfig`'s engine options."""
        # perf/workloads.py's provision call still passes the removed cache
        # option as 0; ROADMAP 1b deletes that argument and this guard.
        if engine.pop("scan_cache_size", 0) != 0:
            raise EngineConfigError("the scan cache is gone; only 0 is accepted")
        return InstanceConfig(**self._served(chain_ids), **engine)

    # --- lifecycle verbs ----------------------------------------------------

    def provision(
        self,
        name: str,
        *,
        chain_ids: "Sequence[int] | None" = None,
        validate: bool = True,
        dedicated: bool = False,
        **engine: Any,
    ) -> DPIServiceInstance:
        """Spawn a DPI service instance from the current configuration.

        With ``validate=True`` (the default) the built configuration is
        statically checked
        (:func:`repro.validation.validate_instance_config`) and
        error-grade issues raise
        :class:`~repro.validation.ValidationError` before the
        instance exists.  ``dedicated=True`` marks the instance as an MCA²
        dedicated engine: the autoscaler neither counts nor scales it, and
        failover never selects it for decommissioning.  ``**engine``
        goes to :meth:`build_config`.
        """
        if name in self._by_name:
            raise ValueError(f"duplicate instance name: {name}")
        config = self.build_config(chain_ids=chain_ids, **engine)
        if validate:
            raise_on_errors(validate_instance_config(config))
        instance = DPIServiceInstance(
            config, name=name, telemetry=self._controller.telemetry
        )
        self._by_name[name] = instance
        self._chain_filter[name] = (
            tuple(chain_ids) if chain_ids is not None else None
        )
        self._dedicated[name] = dedicated
        return instance

    def decommission(
        self, name: str, *, missing_ok: bool = False
    ) -> "DPIServiceInstance | None":
        """Tear down an instance and drop its registry metrics.

        Raises ``KeyError(f"no instance named {name}")`` for an unknown
        name unless ``missing_ok=True`` (then returns None) — the same
        contract :meth:`DPIController.migrate_flow` follows for missing
        endpoints.
        """
        instance = self._by_name.pop(name, None)
        if instance is None:
            if missing_ok:
                return None
            raise KeyError(f"no instance named {name}")
        self._chain_filter.pop(name, None)
        self._dedicated.pop(name, None)
        self._controller.telemetry.registry.drop(instance=name)
        return instance

    def plan_groups(
        self,
        *,
        max_groups: int,
        name_prefix: str = "dpi-group",
        **engine: Any,
    ) -> dict[str, list[int]]:
        """Provision one instance per group of similar policy chains.

        Chains are grouped by the similarity of their middlebox sets (the
        paper's "group together similar policy chains" deployment choice),
        and each group gets a specialized instance carrying only its own
        pattern sets.  Returns ``{instance name: [chain ids]}``.
        """
        chain_map = self._controller.chain_map()
        populated = {
            chain_id: middleboxes
            for chain_id, middleboxes in chain_map.items()
            if middleboxes
        }
        if not populated:
            raise ValueError("no policy chains with registered middleboxes")
        groups = group_chains_by_similarity(populated, max_groups=max_groups)
        deployed = {}
        for index, chain_ids in enumerate(groups, start=1):
            name = f"{name_prefix}-{index}"
            self.provision(name, chain_ids=chain_ids, **engine)
            deployed[name] = list(chain_ids)
        return deployed

    def refresh(self) -> None:
        """Push updated configurations after pattern or chain changes;
        every engine option of each instance carries over unchanged."""
        for name, instance in self._by_name.items():
            instance.reconfigure(
                dataclasses.replace(
                    instance.config, **self._served(self._chain_filter.get(name))
                )
            )

    # --- metadata -----------------------------------------------------------

    def chain_filter_of(self, name: str) -> "tuple | None":
        """The chain-id filter an instance was provisioned with (None =
        serves every chain)."""
        if name not in self._by_name:
            raise KeyError(f"no instance named {name}")
        return self._chain_filter.get(name)

    def is_dedicated(self, name: str) -> bool:
        """True for MCA² dedicated engines (they must survive failover)."""
        return self._dedicated.get(name, False)

    def dedicated_names(self) -> list[str]:
        """Names of every dedicated instance, in provision order."""
        return [name for name, flag in self._dedicated.items() if flag]
