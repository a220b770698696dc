"""ERR003: a TaxError-only handler around a body that parses untyped.

``land`` catches only ``TaxError``, but ``read_spec`` two hops below
calls ``json.loads``, whose ``JSONDecodeError`` is no ``TaxError``:
malformed input escapes the handler.  A parser whose call sits in a
``try`` with any other handler converts the error on the spot
(``read_typed``), and a handler that is not ``TaxError``-only is no
finding (``land_broadly``).
"""

import base64
import json

from repro.core.errors import BriefcaseError, TaxError


def read_spec(text):
    return json.loads(text)


def read_specs(texts):  # one hop between the handler and the parser
    return [read_spec(text) for text in texts]


def read_typed(text):
    try:
        return json.loads(base64.b64decode(text))
    except ValueError as exc:
        raise BriefcaseError("malformed spec") from exc


def land(texts):
    try:
        return read_specs(texts)
    except TaxError:  # finding: ERR003 — json.loads raises untyped
        return None


def land_typed(texts):
    try:
        return [read_typed(text) for text in texts]
    except (TaxError, BriefcaseError):  # ok: every raise below is typed
        return None


def land_broadly(texts):
    try:
        return read_specs(texts)
    except (TaxError, ValueError):  # ok: the untyped error is caught
        return None
