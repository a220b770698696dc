"""ERR002: retry loops that burn their budget on permanent errors.

``fetch_sealed`` always raises ``AccessDeniedError`` (transient=False,
by taxonomy): a loop that catches the broad base and retries will fail
identically every attempt.  Guarded loops (``is_transient``) and loops
narrowed to transient types are the sanctioned patterns.
"""

from taxonomy import (
    AccessDeniedError,
    CommTimeoutError,
    TaxError,
    is_transient,
)


def open_channel(host):
    if host.sealed:
        raise AccessDeniedError(f"{host} is sealed")
    return host.channel


def fetch_sealed(host):  # one hop between the retry loop and the raise
    return open_channel(host)


def fetch_with_retries(host, attempts=3):
    for _ in range(attempts):
        try:
            return fetch_sealed(host)
        except TaxError:  # finding: ERR002 — catches AccessDeniedError
            continue
    return None


def fetch_guarded(host, attempts=3):
    for _ in range(attempts):
        try:
            return fetch_sealed(host)
        except TaxError as exc:  # ok: consults the taxonomy
            if not is_transient(exc):
                raise
            continue
    return None


def fetch_narrow(host, attempts=3):
    for _ in range(attempts):
        try:
            return fetch_sealed(host)
        except CommTimeoutError:  # ok: transient-only catch
            continue
    return None


def fetch_reraising(host):
    while True:
        try:
            return fetch_sealed(host)
        except TaxError:  # ok: unconditionally re-raises
            raise


def fetch_each(hosts):
    for host in hosts:
        try:
            fetch_sealed(host)
        except TaxError:  # ok: visits distinct hosts, does not retry
            continue
