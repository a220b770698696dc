"""Synthetic web-site generator.

Stands in for the paper's real workload — the University of Tromsø CS
department web server: *"the Webbot scanned 917 html pages containing 3
MBytes on our web-server"*, with the assumption *"that all pages can
eventually be reached from the topmost index page"*.

The generator builds a site with:

- a **tree backbone** rooted at ``/index.html`` guaranteeing reachability,
  plus random cross links, giving a controllable depth profile;
- **lognormal page sizes** scaled so the total hits a byte budget;
- injected **dead internal links** (hrefs to paths that do not exist —
  what the link checker is mining for);
- **external links** to other hosts, a fraction of them dead (these are
  the links Webbot logs as *rejected* under a prefix constraint and that
  the mwWebbot wrapper validates in its second pass).

Everything is driven by a :class:`~repro.sim.rng.RandomStream`, so a site
is a pure function of its spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.fold import fold_sum
from repro.sim.rng import RandomStream, derive_seed, stream_from
from repro.web.page import Page, make_filler, render_page


@dataclass(frozen=True)
class SiteSpec:
    """Parameters for one generated site.

    Beyond the basic page/link structure, two realism knobs exercise the
    robot's full feature set:

    - ``redirect_fraction``: a fraction of links point at 301-redirect
      paths (``redirect_dead_fraction`` of those redirect to a missing
      target — dead links hiding behind a redirect);
    - ``robots_disallow`` + ``private_pages``: extra pages under
      disallowed prefixes, linked from public pages; a compliant robot
      must reject (not fetch) them.
    """

    host: str = "www.cs.example.edu"
    n_pages: int = 100
    total_bytes: int = 330_000
    links_per_page: float = 8.0
    dead_internal_fraction: float = 0.03
    external_link_fraction: float = 0.10
    external_hosts: Tuple[str, ...] = ()
    external_dead_fraction: float = 0.25
    size_sigma: float = 0.6
    cross_link_factor: float = 0.5
    redirect_fraction: float = 0.0
    redirect_dead_fraction: float = 0.3
    robots_disallow: Tuple[str, ...] = ()
    private_pages: int = 0
    asset_fraction: float = 0.0
    max_age_days: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        if self.n_pages < 1:
            raise ValueError("a site needs at least one page")
        if self.total_bytes < self.n_pages * 64:
            raise ValueError("total_bytes too small for n_pages")
        for name in ("dead_internal_fraction", "external_link_fraction",
                     "external_dead_fraction", "redirect_fraction",
                     "redirect_dead_fraction", "asset_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("links_per_page", "cross_link_factor", "size_sigma",
                     "max_age_days"):
            # ``not >=`` rather than ``<``: NaN fails every comparison.
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        if self.private_pages and not self.robots_disallow:
            raise ValueError("private_pages need robots_disallow prefixes")
        if self.private_pages < 0:
            raise ValueError("private_pages must be non-negative")


@dataclass
class SiteTruth:
    """Ground truth about the generated link structure."""

    dead_internal: List[Tuple[str, str]] = field(default_factory=list)
    external: List[Tuple[str, str]] = field(default_factory=list)
    dead_external: List[Tuple[str, str]] = field(default_factory=list)
    redirect_alive: List[Tuple[str, str]] = field(default_factory=list)
    redirect_dead: List[Tuple[str, str]] = field(default_factory=list)
    robots_blocked: List[Tuple[str, str]] = field(default_factory=list)
    depth_of: Dict[str, int] = field(default_factory=dict)

    @property
    def dead_total(self) -> int:
        return len(self.dead_internal) + len(self.dead_external) + \
            len(self.redirect_dead)

    def pages_within_depth(self, depth: int) -> int:
        return sum(1 for d in self.depth_of.values() if d <= depth)


@dataclass
class Site:
    """A generated site: host name, page map, redirects, robots policy,
    and ground truth."""

    host: str
    pages: Dict[str, Page]
    root_path: str
    truth: SiteTruth
    redirects: Dict[str, str] = field(default_factory=dict)
    robots_txt: Optional[str] = None

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    @property
    def total_bytes(self) -> int:
        return sum(page.size for page in self.pages.values())

    @property
    def root_url(self) -> str:
        return f"http://{self.host}{self.root_path}"


def _page_paths(n_pages: int, rng: RandomStream) -> List[str]:
    """Paths arranged into a few directories, root first."""
    paths = ["/index.html"]
    n_dirs = max(1, n_pages // 25)
    dir_names = [f"/d{d:02d}" for d in range(n_dirs)]
    for i in range(1, n_pages):
        directory = dir_names[rng.zipf_index(n_dirs, skew=0.8)]
        paths.append(f"{directory}/p{i:05d}.html")
    return paths


def _page_sizes(spec: SiteSpec, rng: RandomStream) -> List[int]:
    """Lognormal sizes rescaled to sum exactly to the byte budget."""
    raws = [rng.bounded_lognormal(0.0, spec.size_sigma, 0.05, 20.0)
            for _ in range(spec.n_pages)]
    scale = spec.total_bytes / fold_sum(raws)
    sizes = [max(200, int(raw * scale)) for raw in raws]
    # Nudge the first page to absorb rounding drift.
    sizes[0] = max(200, sizes[0] + spec.total_bytes - sum(sizes))
    return sizes


def generate_site(spec: SiteSpec,
                  rng: Optional[RandomStream] = None) -> Site:
    """Build a site deterministically from its spec."""
    rng = stream_from(rng if rng is not None else spec.seed, "site")
    structure_rng = rng.fork("structure")
    paths = _page_paths(spec.n_pages, structure_rng)
    sizes = _page_sizes(spec, rng.fork("sizes"))
    truth = SiteTruth()

    # Tree backbone: each page's parent is a random earlier page, biased
    # toward low indices so the tree stays broad near the root.
    children: Dict[int, List[int]] = {i: [] for i in range(spec.n_pages)}
    depth = {0: 0}
    for i in range(1, spec.n_pages):
        parent = structure_rng.zipf_index(i, skew=0.7)
        children[parent].append(i)
        depth[i] = depth[parent] + 1
    truth.depth_of = {paths[i]: d for i, d in depth.items()}

    link_rng = rng.fork("links")
    pick_page = link_rng.index_draw(spec.n_pages)
    outgoing: Dict[int, List[str]] = {i: [] for i in range(spec.n_pages)}
    for i in range(spec.n_pages):
        outgoing[i].extend(paths[c] for c in children[i])

    # Cross links between random page pairs, on top of the backbone.
    n_cross = int(spec.n_pages * spec.links_per_page *
                  spec.cross_link_factor)
    for _ in range(n_cross):
        src = pick_page()
        dst = pick_page()
        outgoing[src].append(paths[dst])

    # Dead internal links: hrefs to paths nothing generates.
    n_links_planned = sum(len(v) for v in outgoing.values())
    n_dead = int(n_links_planned * spec.dead_internal_fraction)
    for d in range(n_dead):
        src = pick_page()
        href = f"/missing/gone{d:04d}.html"
        outgoing[src].append(href)
        truth.dead_internal.append((paths[src], href))

    # Redirect links: hrefs to /moved/* paths that 301 elsewhere; a
    # fraction of the redirect targets do not exist (dead-behind-301).
    redirects: Dict[str, str] = {}
    n_redirects = int(n_links_planned * spec.redirect_fraction)
    for r in range(n_redirects):
        src = pick_page()
        redirect_path = f"/moved/r{r:04d}.html"
        if link_rng.chance(spec.redirect_dead_fraction):
            redirects[redirect_path] = f"/missing/rt{r:04d}.html"
            truth.redirect_dead.append((paths[src], redirect_path))
        else:
            target = paths[pick_page()]
            redirects[redirect_path] = target
            truth.redirect_alive.append((paths[src], redirect_path))
        outgoing[src].append(redirect_path)

    # Assets (images/stylesheets): fetched, typed, but never parsed for
    # links — they exercise the robot's content-type statistics.
    asset_specs: List[Tuple[str, str]] = []
    n_assets = int(spec.n_pages * spec.asset_fraction)
    for a in range(n_assets):
        kind = ("/img/pic{:03d}.gif", "image/gif") if a % 2 == 0 else \
            ("/style/s{:03d}.css", "text/css")
        asset_path = kind[0].format(a)
        asset_specs.append((asset_path, kind[1]))
        src = pick_page()
        outgoing[src].append(asset_path)

    # Robots-disallowed pages: alive, linked, but off limits.
    private_paths: List[str] = []
    robots_txt: Optional[str] = None
    if spec.robots_disallow:
        robots_txt = "User-agent: *\n" + "".join(
            f"Disallow: {prefix}\n" for prefix in spec.robots_disallow)
        base = spec.robots_disallow[0].rstrip("/")
        for k in range(spec.private_pages):
            private_path = f"{base}/s{k:03d}.html"
            private_paths.append(private_path)
            src = pick_page()
            outgoing[src].append(private_path)
            truth.robots_blocked.append((paths[src], private_path))

    # External links (absolute URLs to other hosts).
    if spec.external_hosts:
        n_external = int(n_links_planned * spec.external_link_fraction)
        for e in range(n_external):
            src = pick_page()
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
        page = render_page(
            path, title=f"{spec.host}{path}", links=links,
            anchor_texts=anchors, target_bytes=sizes[i])
        page.age_days = age_rng.uniform(0.0, spec.max_age_days)
        pages[path] = page
    for private_path in private_paths:
        page = render_page(
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


def external_stub_site(host: str, n_pages: int = 1,
                       page_bytes: int = 2_000) -> Site:
    """A minimal site for an external host (just enough to answer HEADs)."""
    spec = SiteSpec(host=host, n_pages=n_pages,
                    total_bytes=max(page_bytes * n_pages, n_pages * 64 + 64),
                    links_per_page=0.0, dead_internal_fraction=0.0,
                    external_link_fraction=0.0,
                    seed=derive_seed(0, "stub/" + host))
    return generate_site(spec)


# -- the paper's workload ------------------------------------------------------

#: Page count from section 5: "the Webbot scanned 917 html pages".
PAPER_N_PAGES = 917
#: Volume from section 5: "containing 3 MBytes".
PAPER_TOTAL_BYTES = 3_000_000
#: Webbot "became unstable with a search tree deeper than 4".
PAPER_MAX_DEPTH = 4


def paper_site_spec(external_hosts: Sequence[str] = ("www.w3.org",
                                                     "www.cornell.edu"),
                    seed: int = 2000) -> SiteSpec:
    """The E1 workload: 917 pages / 3 MB with external + dead links."""
    return SiteSpec(
        host="www.cs.uit.no",
        n_pages=PAPER_N_PAGES,
        total_bytes=PAPER_TOTAL_BYTES,
        links_per_page=8.0,
        dead_internal_fraction=0.03,
        external_link_fraction=0.08,
        external_hosts=tuple(external_hosts),
        external_dead_fraction=0.12,
        seed=seed,
    )
