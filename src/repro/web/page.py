"""HTML page model for the synthetic web.

Pages are real HTML text: the Webbot clone extracts links from the markup
with its own parser, exactly as the original C Webbot parsed real pages,
so the site generator and the robot never share a data structure — only
bytes.  Each :class:`Page` also remembers the links it embedded, which
gives tests a ground truth to compare the robot's extraction against.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import List


@dataclass
class Page:
    """One generated web resource (HTML document or asset).

    ``age_days`` models the Last-Modified header a 1999 server would
    send; ``content_type`` distinguishes documents from assets — both
    feed the Webbot's "age and type of web pages encountered" stats.
    ``size`` is the body size in bytes (UTF-8), taken when the page is
    made: ``html`` is not reassigned afterwards, and every request for
    the page is charged by this number.
    """

    path: str
    html: str
    links: List[str] = field(default_factory=list)
    age_days: float = 0.0
    content_type: str = "text/html"
    size: int = field(init=False)

    def __post_init__(self):
        self.size = len(self.html.encode("utf-8"))

    @property
    def is_html(self) -> bool:
        return self.content_type.startswith("text/html")


_FILLER_WORDS = (
    "network agent mobile briefcase firewall virtual machine wrapper "
    "itinerant mining bandwidth latency server crawl link validation "
    "tromso cornell distributed system prototype language independent "
    "code state snapshot folder element principal instance"
).split()


@lru_cache(maxsize=None)
def _filler_cycle(start: int) -> str:
    """One period of the words from ``start`` in steps of 7, each followed
    by a space (at most ``len(_FILLER_WORDS)`` distinct starts)."""
    count = len(_FILLER_WORDS)
    period = count // gcd(7, count)
    return "".join(_FILLER_WORDS[(start + 7 * k) % count] + " "
                   for k in range(period))


def make_filler(nbytes: int, salt: int = 0) -> str:
    """Deterministic prose filler of approximately ``nbytes`` bytes."""
    if nbytes <= 0:
        return ""
    cycle = _filler_cycle(salt % len(_FILLER_WORDS))
    text = (cycle * (nbytes // len(cycle) + 1))[:nbytes]
    # Words are joined, not terminated: a cut that lands just after a
    # word's space yields that word without it, one byte short.
    return text[:-1] if text.endswith(" ") else text


def render_page(path: str, title: str, links: List[str],
                anchor_texts: List[str], target_bytes: int) -> Page:
    """Render a page containing the given hrefs, padded to ~target size.

    The returned page is at least large enough to hold its own structure;
    ``target_bytes`` below that minimum yields the unpadded page.
    """
    if len(links) != len(anchor_texts):
        raise ValueError("links and anchor_texts must align")
    items = "\n".join(
        f'  <li><a href="{_html.escape(href, quote=True)}">'
        f"{_html.escape(text)}</a></li>"
        for href, text in zip(links, anchor_texts))
    skeleton = (
        "<!DOCTYPE html>\n"
        f"<html>\n<head><title>{_html.escape(title)}</title></head>\n"
        "<body>\n"
        f"<h1>{_html.escape(title)}</h1>\n"
        "<p>{filler}</p>\n"
        "<ul>\n"
        f"{items}\n"
        "</ul>\n"
        "</body>\n</html>\n")
    overhead = len(skeleton.format(filler="").encode("utf-8"))
    filler = make_filler(max(0, target_bytes - overhead), salt=len(path))
    return Page(path=path, html=skeleton.format(filler=filler),
                links=list(links))
