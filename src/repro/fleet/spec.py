"""Declarative job model for the experiment fleet.

A :class:`RunSpec` describes one deterministic simulation run -- the
scenario builder and its parameters, the protocol, the transfer shape
and any :class:`~repro.core.config.HRMCConfig` deltas -- as plain JSON
data.  Because the whole world is reconstructed from the spec inside
the worker, two runs of the same spec are byte-identical no matter
which process (or machine) executes them, and the spec's canonical
content hash becomes a stable address for the result.

The cache key additionally folds in the protocol-code fingerprint
(:mod:`repro.fleet.fingerprint`), so editing anything under
``src/repro/`` automatically invalidates previously stored results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Optional

__all__ = ["RunSpec", "SPEC_VERSION"]

#: bump when the spec schema or its execution semantics change in a way
#: that makes old cached results incomparable
SPEC_VERSION = 2

_SCENARIOS = ("lan", "wan", "chaos")


@dataclass
class RunSpec:
    """One simulation run, content-addressable.

    ``scenario_params`` depend on the builder:

    * ``lan``   -- ``receivers``, ``bandwidth_bps``, ``seed``
    * ``wan``   -- ``bandwidth_bps``, ``seed`` plus either ``groups``
      (list of characteristic-group names, one receiver each) or
      ``test`` + ``receivers`` (a Figure-14 test case)
    * ``chaos`` -- ``receivers``, ``bandwidth_bps``, ``seed``,
      ``horizon_us`` (the same seed drives topology and fault plan)

    ``cfg`` holds :class:`HRMCConfig` field overrides; the reserved key
    ``_rmc`` applies :meth:`HRMCConfig.as_rmc` before the overrides.
    """

    scenario: str
    scenario_params: dict
    nbytes: int
    protocol: str = "hrmc"
    sndbuf: int = 64 * 1024
    rcvbuf: Optional[int] = None
    cfg: dict = field(default_factory=dict)
    disk: bool = False
    max_sim_s: float = 3600.0
    invariants: bool = False
    obs: bool = False          # collect observability summary tables
    health: bool = False       # collect the protocol-health payload
    tag: str = ""              # human label (part of the identity)

    def __post_init__(self) -> None:
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"known: {', '.join(_SCENARIOS)}")

    # -- convenience constructors (the shapes the harness uses) --------

    @classmethod
    def lan(cls, receivers: int, bandwidth_bps: float, *, seed: int,
            nbytes: int, **kw: Any) -> "RunSpec":
        return cls(scenario="lan",
                   scenario_params={"receivers": int(receivers),
                                    "bandwidth_bps": float(bandwidth_bps),
                                    "seed": int(seed)},
                   nbytes=nbytes, **kw)

    @classmethod
    def wan(cls, *, bandwidth_bps: float, seed: int, nbytes: int,
            groups: Optional[list[str]] = None,
            test: Optional[int] = None,
            receivers: Optional[int] = None, **kw: Any) -> "RunSpec":
        if (groups is None) == (test is None):
            raise ValueError("wan spec needs exactly one of "
                             "groups= or test=")
        params: dict[str, Any] = {"bandwidth_bps": float(bandwidth_bps),
                                  "seed": int(seed)}
        if groups is not None:
            params["groups"] = [str(g) for g in groups]
        else:
            params["test"] = int(test)
            params["receivers"] = int(receivers)
        return cls(scenario="wan", scenario_params=params,
                   nbytes=nbytes, **kw)

    @classmethod
    def chaos(cls, receivers: int, bandwidth_bps: float, *, seed: int,
              nbytes: int, horizon_us: int = 2_000_000,
              **kw: Any) -> "RunSpec":
        return cls(scenario="chaos",
                   scenario_params={"receivers": int(receivers),
                                    "bandwidth_bps": float(bandwidth_bps),
                                    "seed": int(seed),
                                    "horizon_us": int(horizon_us)},
                   nbytes=nbytes, **kw)

    # -- serialization + addressing ------------------------------------

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["version"] = SPEC_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        d = dict(d)
        version = d.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(f"unsupported RunSpec version {version!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: "
                             f"{', '.join(sorted(unknown))}")
        return cls(**d)

    def canonical_json(self) -> str:
        """Deterministic encoding: sorted keys, no whitespace noise."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable address of this spec (independent of code state)."""
        return hashlib.blake2b(self.canonical_json().encode(),
                               digest_size=16).hexdigest()

    def describe(self) -> str:
        p = self.scenario_params
        where = (f"test{p['test']}x{p['receivers']}" if "test" in p
                 else f"x{len(p['groups'])}" if "groups" in p
                 else f"x{p['receivers']}")
        label = f" [{self.tag}]" if self.tag else ""
        return (f"{self.scenario} {where} {self.protocol} "
                f"{self.nbytes}B sndbuf={self.sndbuf} "
                f"seed={p['seed']}{label}")
