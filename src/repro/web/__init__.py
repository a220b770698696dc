"""Simulated web substrate: URLs, pages, sites, servers, HTTP clients.

Replaces the paper's real workload (the Tromsø CS department web server)
with a parameterised synthetic equivalent; ``paper_site_spec()`` is the
exact E1 configuration (917 pages, 3 MB).
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".": "urls",
    ".client": "ClientModel ClientResponse SimHttpClient",
    ".page": "Page make_filler render_page",
    ".server": "HttpRequest HttpResponse ServerModel WebDeployment WebServer",
    ".site": (
        "PAPER_MAX_DEPTH PAPER_N_PAGES PAPER_TOTAL_BYTES Site SiteSpec "
        "SiteTruth external_stub_site generate_site paper_site_spec"),
})
