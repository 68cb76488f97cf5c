"""Built-in manifold models and the --model argument syntax.

Accepted forms:

* ``s<n>``            one odd generator of degree n (n odd), e.g. ``s3``;
* ``su<n>``           generators of degrees 3, 5, ..., 2n-1 (n >= 2), e.g. ``su3``;
* ``exterior:d1,d2``  explicit odd degrees, e.g. ``exterior:3,5,7``;
* a path to a JSON file ``{"name": ..., "generator_degrees": [...]}``.
"""

from __future__ import annotations

import os
import re

from .kernel import AlgebraError, ModelSpec

_SPHERE = re.compile(r"^s([0-9]+)$")
_SPECIAL_UNITARY = re.compile(r"^su([0-9]+)$")
_EXTERIOR = re.compile(r"^exterior:(.+)$")


def builtin_model(name: str) -> ModelSpec | None:
    """Resolve a built-in model name, or None when the name is not built in."""
    m = _SPHERE.match(name)
    if m:
        n = int(m.group(1))
        if n % 2 == 0 or n < 1:
            raise AlgebraError("model %r: sphere degree must be odd and >= 1" % name)
        return ModelSpec(name, (n,))
    m = _SPECIAL_UNITARY.match(name)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise AlgebraError("model %r: su<n> needs n >= 2" % name)
        return ModelSpec(name, tuple(range(3, 2 * n, 2)))
    m = _EXTERIOR.match(name)
    if m:
        try:
            degrees = tuple(int(part) for part in m.group(1).split(","))
        except ValueError:
            raise AlgebraError("model %r: exterior: wants a comma list of odd integers" % name)
        return ModelSpec(name, degrees)
    return None


def resolve_model(text: str) -> ModelSpec:
    """Turn a --model argument (builtin name, exterior syntax, or file) into a model."""
    spec = builtin_model(text)
    if spec is not None:
        return spec
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                spec = ModelSpec.from_json(handle.read())
        except OSError as exc:
            raise AlgebraError("model file %r is unreadable: %s" % (text, exc)) from exc
        # reports carry only the model name, and replay resolves a built-in
        # name to the built-in, so a file may reuse such a name only exactly
        try:
            builtin = builtin_model(spec.name)
        except AlgebraError:  # shaped like a built-in name, such as s4, that none can have
            builtin = None
        if builtin is not None and builtin.generator_degrees != spec.generator_degrees:
            raise AlgebraError(
                "model file %r is named %r, the built-in model with degrees %s, but lists degrees %s"
                % (text, spec.name, list(builtin.generator_degrees), list(spec.generator_degrees))
            )
        return spec
    raise AlgebraError(
        "unknown model %r (try s3, su3, exterior:3,5,... or a JSON model file)" % text
    )


def describe_builtins() -> list[str]:
    return [
        "s<n>            odd sphere, one generator of degree n (s3, s5, s7, ...)",
        "su<n>           generators of degrees 3,5,...,2n-1 (su2, su3, su4, ...)",
        "exterior:<d,..> explicit odd generator degrees (exterior:3,5,7)",
        "<file.json>     {\"name\": ..., \"generator_degrees\": [...]}",
    ]
