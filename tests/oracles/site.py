"""The site generator as it stood before it rendered by concatenation:
the oracle ``render_page`` and ``generate_site`` are tested against.

``reference_render_page`` builds a ``str.format`` template and formats
it twice — once with an empty filler to measure the page's overhead,
once for real — and escapes every href, every anchor text and the
title each time it writes them (two ``html.escape`` calls per link).
So a brace in any of them is read as a format field: the oracle is
defined for brace-free input only, which is all the generator makes.
``reference_generate_site`` draws each link's page with
``randint(0, n_pages - 1)`` and renders through
``reference_render_page``.  The helpers neither touched —
``_page_paths``, ``_page_sizes``, ``make_filler``, the dataclasses and
the stream forks — are the product's own, so a difference in any page,
redirect, robots file or truth list is the rendering's or the draws'.
"""

import html as _html
from typing import Dict, List, Optional, Tuple

from repro.sim.rng import RandomStream, stream_from
from repro.web.page import Page, make_filler
from repro.web.site import Site, SiteSpec, SiteTruth, _page_paths, \
    _page_sizes


def reference_render_page(path: str, title: str, links: List[str],
                          anchor_texts: List[str],
                          target_bytes: int) -> Page:
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


def reference_generate_site(spec: SiteSpec,
                            rng: Optional[RandomStream] = None) -> Site:
    rng = stream_from(rng if rng is not None else spec.seed, "site")
    structure_rng = rng.fork("structure")
    paths = _page_paths(spec.n_pages, structure_rng)
    sizes = _page_sizes(spec, rng.fork("sizes"))
    truth = SiteTruth()

    children: Dict[int, List[int]] = {i: [] for i in range(spec.n_pages)}
    depth = {0: 0}
    for i in range(1, spec.n_pages):
        parent = structure_rng.zipf_index(i, skew=0.7)
        children[parent].append(i)
        depth[i] = depth[parent] + 1
    truth.depth_of = {paths[i]: d for i, d in depth.items()}

    link_rng = rng.fork("links")
    outgoing: Dict[int, List[str]] = {i: [] for i in range(spec.n_pages)}
    for i in range(spec.n_pages):
        outgoing[i].extend(paths[c] for c in children[i])

    n_cross = int(spec.n_pages * spec.links_per_page *
                  spec.cross_link_factor)
    for _ in range(n_cross):
        src = link_rng.randint(0, spec.n_pages - 1)
        dst = link_rng.randint(0, spec.n_pages - 1)
        outgoing[src].append(paths[dst])

    n_links_planned = sum(len(v) for v in outgoing.values())
    n_dead = int(n_links_planned * spec.dead_internal_fraction)
    for d in range(n_dead):
        src = link_rng.randint(0, spec.n_pages - 1)
        href = f"/missing/gone{d:04d}.html"
        outgoing[src].append(href)
        truth.dead_internal.append((paths[src], href))

    redirects: Dict[str, str] = {}
    n_redirects = int(n_links_planned * spec.redirect_fraction)
    for r in range(n_redirects):
        src = link_rng.randint(0, spec.n_pages - 1)
        redirect_path = f"/moved/r{r:04d}.html"
        if link_rng.chance(spec.redirect_dead_fraction):
            redirects[redirect_path] = f"/missing/rt{r:04d}.html"
            truth.redirect_dead.append((paths[src], redirect_path))
        else:
            target = paths[link_rng.randint(0, spec.n_pages - 1)]
            redirects[redirect_path] = target
            truth.redirect_alive.append((paths[src], redirect_path))
        outgoing[src].append(redirect_path)

    asset_specs: List[Tuple[str, str]] = []
    n_assets = int(spec.n_pages * spec.asset_fraction)
    for a in range(n_assets):
        kind = ("/img/pic{:03d}.gif", "image/gif") if a % 2 == 0 else \
            ("/style/s{:03d}.css", "text/css")
        asset_path = kind[0].format(a)
        asset_specs.append((asset_path, kind[1]))
        src = link_rng.randint(0, spec.n_pages - 1)
        outgoing[src].append(asset_path)

    private_paths: List[str] = []
    robots_txt: Optional[str] = None
    if spec.robots_disallow:
        robots_txt = "User-agent: *\n" + "".join(
            f"Disallow: {prefix}\n" for prefix in spec.robots_disallow)
        base = spec.robots_disallow[0].rstrip("/")
        for k in range(spec.private_pages):
            private_path = f"{base}/s{k:03d}.html"
            private_paths.append(private_path)
            src = link_rng.randint(0, spec.n_pages - 1)
            outgoing[src].append(private_path)
            truth.robots_blocked.append((paths[src], private_path))

    if spec.external_hosts:
        n_external = int(n_links_planned * spec.external_link_fraction)
        for e in range(n_external):
            src = link_rng.randint(0, spec.n_pages - 1)
            ext_host = spec.external_hosts[
                link_rng.zipf_index(len(spec.external_hosts), skew=0.5)]
            if link_rng.chance(spec.external_dead_fraction):
                href = f"http://{ext_host}/missing/ext{e:04d}.html"
                truth.dead_external.append((paths[src], href))
            else:
                href = f"http://{ext_host}/index.html"
            outgoing[src].append(href)
            truth.external.append((paths[src], href))

    shuffle_rng = rng.fork("shuffle")
    age_rng = rng.fork("ages")
    pages: Dict[str, Page] = {}
    for i, path in enumerate(paths):
        links = list(outgoing[i])
        shuffle_rng.shuffle(links)
        anchors = [f"ref {j}" for j in range(len(links))]
        page = reference_render_page(
            path, title=f"{spec.host}{path}", links=links,
            anchor_texts=anchors, target_bytes=sizes[i])
        page.age_days = age_rng.uniform(0.0, spec.max_age_days)
        pages[path] = page
    for private_path in private_paths:
        page = reference_render_page(
            private_path, title=f"private {private_path}", links=[],
            anchor_texts=[], target_bytes=400)
        page.age_days = age_rng.uniform(0.0, spec.max_age_days)
        pages[private_path] = page
    for asset_path, content_type in asset_specs:
        body = make_filler(600, salt=len(asset_path))
        pages[asset_path] = Page(
            path=asset_path, html=body, links=[],
            age_days=age_rng.uniform(0.0, spec.max_age_days),
            content_type=content_type)
    return Site(host=spec.host, pages=pages, root_path=paths[0],
                truth=truth, redirects=redirects, robots_txt=robots_txt)
