"""The scenario-plugin registry behind ``repro.suites``.

Every named workload of the reproduction — the chaos/partition/
crashtest fault scenarios, the overload flood, the paper experiments —
is registered here as a :class:`ScenarioPlugin`: a named, parameterised
driver that takes one integer seed plus validated keyword parameters
and returns a canonical JSON-able document.  The suite matrix runner
(:mod:`repro.suites.runner`) composes cells entirely out of plugins, so
a new workload becomes *config plus one registration* instead of a new
bespoke CLI subcommand.

Contracts every plugin must honour (recorded in
``docs/experiments.md`` and regression-tested in
``tests/test_suites.py``):

1. **Fresh registry per run** — the driver constructs its own
   :class:`~repro.obs.telemetry.Telemetry` for every invocation.
   Cumulative registry state — ``Gauge.set_max`` peak watermarks,
   counter totals, flight recorder dumps — must never survive from one
   in-process run into the next, or later matrix cells report the
   earlier cells' peaks.  Lint rule OBS002 flags module-global
   telemetry state structurally.
2. **Seeds come in, streams are named** — all randomness must derive
   from the single ``seed`` argument through named
   :class:`~repro.sim.rng.RandomStream`\\ s (use
   :func:`repro.sim.rng.retry_stream` /
   :func:`~repro.sim.rng.derive_seed`); never seed arithmetic like
   ``seed + index``, which couples supposedly independent cells.
3. **Pure function of its inputs** — the returned document must be
   byte-for-byte identical (after :meth:`ScenarioPlugin.render`) across
   runs with the same seed and parameters, in any process, at any
   matrix position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Mapping, Optional, Tuple,
                    Type)


class SuiteError(ValueError):
    """Base class of every suite-layer configuration failure."""


class UnknownPluginError(SuiteError):
    """A suite (or CLI) named a scenario plugin that is not registered."""


@dataclass(frozen=True)
class ParamSpec:
    """One allowed parameter of a plugin.

    ``choices`` (when given) enumerates the legal values — the
    *variant* axis a ``--list`` style listing shows; ``kind`` is the
    required Python type of a supplied value.
    """

    default: object
    kind: Type[object] = str
    choices: Optional[Tuple[object, ...]] = None
    help: str = ""

    def validate(self, plugin: str, name: str, value: object) -> object:
        if self.kind is int and isinstance(value, bool):
            raise SuiteError(
                f"plugin {plugin!r}: parameter {name!r} must be an "
                f"int, got {value!r}")
        if not isinstance(value, self.kind):
            raise SuiteError(
                f"plugin {plugin!r}: parameter {name!r} must be "
                f"{self.kind.__name__}, got {type(value).__name__} "
                f"{value!r}")
        if self.choices is not None and value not in self.choices:
            raise SuiteError(
                f"plugin {plugin!r}: parameter {name!r} must be one of "
                f"{list(self.choices)}, got {value!r}")
        return value


@dataclass(frozen=True)
class ScenarioPlugin:
    """One registered scenario driver sharing the suite envelope.

    ``run(seed=..., **params)`` returns the raw scenario document;
    ``render`` is its canonical serialisation; ``checks`` are the
    default invariant expressions the matrix runner evaluates against
    the document (see :func:`repro.suites.runner.evaluate_check`);
    ``variant_param`` names the parameter that distinguishes the
    plugin's named variants in listings, and ``variant_help`` describes
    each of them (the ``--list`` table).
    """

    name: str
    description: str
    run: Callable[..., Dict[str, Any]]
    render: Callable[[Dict[str, Any]], str]
    params: Mapping[str, ParamSpec] = \
        field(default_factory=dict)
    checks: Tuple[str, ...] = ()
    variant_param: Optional[str] = None
    variant_help: Mapping[str, str] = field(default_factory=dict)

    def variants(self) -> Tuple[object, ...]:
        """The named variants (choices of ``variant_param``), if any."""
        if self.variant_param is None:
            return ()
        return self.params[self.variant_param].choices or ()

    def validate_params(self, params: Mapping[str, object]
                        ) -> Dict[str, object]:
        """Merge ``params`` over the defaults; reject unknown keys and
        out-of-domain values.  Returns the full, canonical param dict."""
        merged: Dict[str, object] = {
            name: spec.default for name, spec in self.params.items()}
        for name, value in params.items():
            spec = self.params.get(name)
            if spec is None:
                raise SuiteError(
                    f"plugin {self.name!r} has no parameter {name!r} "
                    f"(have {sorted(self.params)})")
            merged[name] = spec.validate(self.name, name, value)
        return merged

    def run_cell(self, seed: int,
                 params: Mapping[str, object]) -> Dict[str, Any]:
        """Validate ``params`` and run the driver once."""
        return self.run(seed=seed, **self.validate_params(params))


_REGISTRY: Dict[str, ScenarioPlugin] = {}


def register_plugin(plugin: ScenarioPlugin) -> ScenarioPlugin:
    """Register (or replace) a plugin under its name."""
    if plugin.variant_param is not None \
            and plugin.variant_param not in plugin.params:
        raise SuiteError(
            f"plugin {plugin.name!r}: variant_param "
            f"{plugin.variant_param!r} is not a declared parameter")
    _REGISTRY[plugin.name] = plugin
    return plugin


def get_plugin(name: str) -> ScenarioPlugin:
    ensure_builtin_plugins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownPluginError(
            f"unknown scenario plugin {name!r} "
            f"(have {plugin_names()})") from None


def plugin_names() -> Tuple[str, ...]:
    ensure_builtin_plugins()
    return tuple(sorted(_REGISTRY))


def plugin_descriptions() -> Dict[str, str]:
    ensure_builtin_plugins()
    return {name: _REGISTRY[name].description for name in sorted(_REGISTRY)}


_builtins_loaded = False


def ensure_builtin_plugins() -> None:
    """Import :mod:`repro.suites.plugins` once (it registers on import)."""
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        import repro.suites.plugins  # noqa: F401  (registration side effect)
