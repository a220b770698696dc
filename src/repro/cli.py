"""Command-line interface: ``python -m repro <command>``.

Commands (``docs/`` has the long form of each):

- ``experiments [E1 E2 ...]`` — the paper suite: each experiment's
  table and claims (``--json``: the suite document, ``results.json``);
- ``crawl`` — one ad-hoc stationary-vs-mobile link-check comparison;
- ``site`` — generate a synthetic site and print its statistics;
- ``trace`` — the traced quickstart as Chrome ``trace_event`` / JSONL;
- ``bench`` — experiment E1 under telemetry, as a JSON report;
- ``chaos`` / ``partition`` / ``crashtest`` / ``overload`` — one
  registered scenario plugin (``repro.suites``) at ``--seed``: prints
  its canonical JSON document, ``--list`` prints its variants, an
  unknown variant exits 2, and the plugin's checks decide exit 0/1;
- ``suite run|list|validate`` — declarative matrices over the plugins;
- ``report`` — the traced quickstart's itinerary + SLO report as JSON;
- ``metrics`` — the traced quickstart's registry as OpenMetrics text;
- ``lint`` — the determinism/safety rule pack (``repro.analysis``).

Every JSON/OpenMetrics stdout is a pure function of the arguments: CI
reruns the commands under ``scripts/perturb.py`` and diffs
byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; if that fails, say so on stderr and
    return False (the command then exits 1)."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.mining.strategies import (
        CrawlTask, run_mobile, run_stationary)
    from repro.system.bootstrap import build_linkcheck_testbed
    from repro.web.site import SiteSpec

    spec = SiteSpec(host="www.cs.uit.no", n_pages=args.pages,
                    total_bytes=args.bytes,
                    external_hosts=("www.w3.org", "www.cornell.edu"),
                    seed=args.seed)
    testbed = build_linkcheck_testbed(
        spec=spec, bandwidth=args.bandwidth_mbit * 1_000_000 / 8,
        latency=args.latency_ms / 1000.0)
    try:
        site = testbed.site_of(spec.host)
        print(f"site: {site.n_pages} pages, {site.total_bytes:,d} bytes, "
              f"{site.truth.dead_total} planted dead links")
        task = CrawlTask.for_site(site, max_depth=args.max_depth)
        rows = []
        if args.strategy in ("stationary", "both"):
            rows.append(run_stationary(testbed, [task]))
        if args.strategy in ("mobile", "both"):
            rows.append(run_mobile(testbed, [task], monitor=args.monitor))
        for metrics in rows:
            print(metrics.summary_row())
        if len(rows) == 2:
            ratio = rows[0].elapsed_seconds / rows[1].elapsed_seconds
            print(f"speedup (stationary/mobile): {ratio:.3f}")
        return 0
    finally:
        testbed.cluster.close()


def _cmd_site(args: argparse.Namespace) -> int:
    from repro.web.site import SiteSpec, generate_site

    spec = SiteSpec(host=args.host, n_pages=args.pages,
                    total_bytes=args.bytes, seed=args.seed,
                    external_hosts=("www.w3.org",),
                    redirect_fraction=args.redirects,
                    robots_disallow=("/private",) if args.robots else (),
                    private_pages=5 if args.robots else 0)
    site = generate_site(spec)
    truth = site.truth
    print(f"host          : {site.host}")
    print(f"pages         : {site.n_pages}")
    print(f"bytes         : {site.total_bytes:,d}")
    print(f"dead internal : {len(truth.dead_internal)}")
    print(f"dead external : {len(truth.dead_external)}")
    print(f"redirects     : {len(site.redirects)} "
          f"({len(truth.redirect_dead)} dead)")
    print(f"robots rules  : "
          f"{site.robots_txt.count('Disallow') if site.robots_txt else 0}")
    for depth in (1, 2, 4, 8):
        print(f"pages within depth {depth}: "
              f"{truth.pages_within_depth(depth)}")
    if args.show_truth:
        for src, href in truth.dead_internal:
            print(f"  dead: {src} -> {href}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.demo import run_traced_quickstart

    cluster, result = run_traced_quickstart()
    try:
        tracer = cluster.telemetry.tracer
        greetings = result.folder("GREETINGS").texts()
        print(f"quickstart itinerary finished at t={cluster.kernel.now:.4f}s "
              f"virtual; {len(greetings)} greetings, "
              f"{len(tracer.spans)} spans, {len(tracer.instants)} instants")
        wrote = False
        try:
            if args.chrome:
                n = tracer.export_chrome(args.chrome)
                print(f"wrote {n} trace events to {args.chrome} "
                      "(load in https://ui.perfetto.dev)")
                wrote = True
            if args.jsonl:
                n = tracer.export_jsonl(args.jsonl)
                print(f"wrote {n} JSONL rows to {args.jsonl}")
                wrote = True
        except OSError as exc:
            print(f"cannot write trace: {exc}", file=sys.stderr)
            return 1
        if not wrote:
            print("(no output file requested; use --chrome and/or --jsonl)")
        return 0
    finally:
        cluster.close()


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.demo import run_traced_quickstart
    from repro.obs.report import (
        build_report, render_report_html, render_report_json)

    cluster, _ = run_traced_quickstart()
    try:
        document = build_report(cluster.telemetry,
                                meta={"scenario": "traced-quickstart"})
    finally:
        cluster.close()
    rendered = render_report_json(document)
    print(rendered)
    if args.json_path:
        if not _write(args.json_path, rendered + "\n"):
            return 1
        print(f"wrote report JSON to {args.json_path}", file=sys.stderr)
    if args.html_path:
        if not _write(args.html_path, render_report_html(document)):
            return 1
        print(f"wrote report HTML to {args.html_path}", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.demo import run_traced_quickstart
    from repro.obs.openmetrics import render_openmetrics

    cluster, _ = run_traced_quickstart()
    try:
        rendered = render_openmetrics(cluster.telemetry.metrics.snapshot())
    finally:
        cluster.close()
    print(rendered, end="")
    if args.out:
        if not _write(args.out, rendered):
            return 1
        print(f"wrote OpenMetrics text to {args.out}", file=sys.stderr)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    """``repro experiments``: the paper suite — one ``experiment`` cell
    per id at ``--seed`` — through the suite runner; each cell's
    document is printed as its table and claims, and ``--json`` writes
    the suite document."""
    from repro.bench.experiments import EXPERIMENTS
    from repro.bench.metrics import render_report
    from repro.suites.schema import parse_suite

    ids = [name.upper() for name in args.ids] or sorted(EXPERIMENTS)
    spec = _suite_spec("experiments", lambda: parse_suite({
        "suite": "paper", "description": "every paper experiment at one seed",
        "seed": args.seed, "cells": [{
            "plugin": "experiment",
            "matrix": {"id": ids, "seed": [args.seed]}}],
    }, source="arguments"))
    if spec is None:
        return 2

    def show(document) -> None:
        for cell in document["cells"]:
            print(render_report(cell["document"]) if "document" in cell
                  else f"=== {cell['id']}: {cell['error']['type']}: "
                       f"{cell['error']['message']} ===")
            print()
    return _run_suite(spec, show, args.json_path)


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.bench.experiments import run_e1
    from repro.bench.metrics import render_report

    wall_start = time.perf_counter()
    report = run_e1(seed=args.seed, telemetry=True)
    wall = time.perf_counter() - wall_start
    document = report.to_dict()
    print(render_report(document))
    document["wall_seconds"] = wall
    if args.json_path:
        if not _write(args.json_path,
                      json.dumps(document, indent=2, sort_keys=True)):
            return 1
        print(f"\nwrote report ({wall:.1f}s wall) to {args.json_path}")
    return 0


def _print_name_table(descriptions) -> None:
    width = max(len(name) for name in descriptions)
    for name, description in descriptions.items():
        print(f"  {name:<{width}}  {description}")


#: The registered scenario plugins that are also top-level commands:
#: name -> (the plugin's variant parameter, the parser's help line).
#: Static so that building the parser imports no driver.
SCENARIO_COMMANDS = {
    "chaos": ("plan",
              "run the survey itinerary under a fault plan; print JSON"),
    "partition": ("scenario",
                  "run the survey under an exactly-once partition "
                  "scenario; print JSON"),
    "crashtest": ("scenario",
                  "run a bare agent over crash-durable hosts; exits "
                  "non-zero unless exactly-once AND agent conservation "
                  "hold"),
    "overload": ("mode",
                 "flood one host under a governor mode; print JSON"),
}


def _cmd_scenario(args: argparse.Namespace) -> int:
    """``repro chaos|partition|crashtest|overload``: run one registered
    plugin at ``--seed`` — the variant table, the parameter domain and
    the exit-code verdict all come from the registration.  ``--list``
    prints the variant table and an unknown variant exits 2 with a
    hint."""
    import json

    from repro.suites.registry import get_plugin
    from repro.suites.runner import evaluate_check

    command = args.command
    plugin = get_plugin(command)
    noun = plugin.variant_param
    if args.list:
        print(f"{command} {noun}s:")
        _print_name_table(plugin.variant_help)
        return 0
    # An omitted variant takes the plugin's default.
    params = {noun: args.variant} if args.variant is not None else {}
    if getattr(args, "no_recovery", False):
        params["recovery"] = False
    try:
        document = plugin.run_cell(args.seed, params)
    except ValueError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        print(f"(use `repro {command} --list` to see the {noun}s)",
              file=sys.stderr)
        return 2
    print(plugin.render(document))
    path = getattr(args, "journal_dump", "")
    if path and not _write(path, "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in document["journal_sample"]["tail"])):
        return 1
    return 0 if all(evaluate_check(check, document)[0]
                    for check in plugin.checks) else 1


def _default_lint_paths() -> List[str]:
    """The installed ``repro`` package tree (works from any cwd)."""
    import os

    import repro
    return [os.path.dirname(os.path.abspath(repro.__file__))]


def _default_baseline_path() -> str:
    """``lint-baseline.json`` at the repository root (two levels above
    the package: ``<root>/src/repro``)."""
    import os

    import repro
    package = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.dirname(os.path.dirname(package))
    return os.path.join(root, "lint-baseline.json")


def _cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.baseline import (
        apply_baseline, load_baseline, write_baseline)
    from repro.analysis.engine import Analyzer, rule_index
    from repro.analysis.findings import (
        fingerprinted, render_json, render_sarif, render_text)
    from repro.analysis.sanitizer import (
        SANITIZER_RULES, run_sanitized_scenarios)

    paths = list(args.paths) or _default_lint_paths()
    try:
        report, project, flow = Analyzer().run(paths)
    except (OSError, SyntaxError) as exc:
        print(f"lint: cannot analyze: {exc}", file=sys.stderr)
        return 2

    if args.graph:
        from repro.analysis.callgraph import export_dot, export_json

        render = export_dot if args.graph == "dot" else export_json
        print(render(project, flow.effects), end="")
        return 0

    if args.sanitize:
        runtime = run_sanitized_scenarios()
        report.findings = fingerprinted(
            list(report.findings) + list(runtime))
        report.analyzed.extend(
            sorted({f.path for f in runtime}))

    baseline_path = args.baseline or _default_baseline_path()
    if args.write_baseline:
        count = write_baseline(report.findings, baseline_path)
        print(f"wrote baseline with {count} finding(s) to {baseline_path}")
        return 0
    if not args.no_baseline and os.path.isfile(baseline_path):
        try:
            apply_baseline(report, load_baseline(baseline_path))
        except (OSError, ValueError) as exc:
            print(f"lint: bad baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2

    if args.sarif:
        from repro.analysis.iprules import project_rule_index

        index = dict(rule_index())
        index.update(project_rule_index())
        index.update(SANITIZER_RULES)
        try:
            with open(args.sarif, "w", encoding="utf-8") as handle:
                handle.write(render_sarif(report, index))
        except OSError as exc:
            print(f"lint: cannot write SARIF: {exc}", file=sys.stderr)
            return 2
    print(render_json(report) if args.json else render_text(report),
          end="")
    return report.exit_code


def _suite_spec(command: str, load):
    """``load()``'s suite spec, or None once a bad suite is reported."""
    from repro.suites.registry import SuiteError

    try:
        return load()
    except SuiteError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return None


def _run_suite(spec, show, json_path: Optional[str], **options) -> int:
    """Run ``spec`` through the suite runner: ``show`` prints its
    document, ``json_path`` (if given) gets it as JSON and the summary
    goes to stderr; exits 1 unless every cell passed."""
    from repro.suites.runner import render_suite_json, run_suite, suite_ok

    document = run_suite(spec, **options)
    show(document)
    if json_path:
        if not _write(json_path, render_suite_json(document) + "\n"):
            return 1
        print(f"wrote suite document to {json_path}", file=sys.stderr)
    summary = document["summary"]
    print(f"suite {spec.name!r}: {summary['passed']}/"
          f"{summary['planned']} passed, {summary['failed']} failed, "
          f"{summary['skipped']} skipped", file=sys.stderr)
    return 0 if suite_ok(document) else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.suites.registry import (
        get_plugin, plugin_descriptions, plugin_names)
    from repro.suites.runner import cell_seed, render_suite_json
    from repro.suites.schema import load_suite

    if args.suite_command == "list" and not args.file:
        print("scenario plugins:")
        _print_name_table(plugin_descriptions())
        for name in plugin_names():
            plugin = get_plugin(name)
            variants = plugin.variants()
            if variants:
                print(f"  {name} --{plugin.variant_param}: "
                      f"{', '.join(str(v) for v in variants)}")
        return 0
    spec = _suite_spec("suite", lambda: load_suite(args.file))
    if spec is None:
        return 2
    if args.suite_command == "list":
        print(f"suite {spec.name!r} ({spec.source}): "
              f"{len(spec.cells)} cell(s), seed {spec.seed}, "
              f"early_stop {spec.early_stop}")
        for index, cell in enumerate(spec.cells):
            print(f"  [{index}] {cell.cell_id} "
                  f"seed={cell_seed(spec.seed, cell)}")
        return 0
    if args.suite_command == "validate":
        print(f"{spec.source}: OK — suite {spec.name!r}, "
              f"{len(spec.cells)} cell(s)")
        return 0

    return _run_suite(
        spec, lambda document: print(render_suite_json(document)),
        args.json_path, seed=args.seed,
        include_documents=not args.digests_only)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAX 2.0 / wrapped-Webbot reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiments",
                         help="run the paper-reproduction experiments")
    exp.add_argument("ids", nargs="*", default=[],
                     help="experiment ids (default: all)")
    exp.add_argument("--seed", type=int, default=2000,
                     help="the seed of every cell")
    exp.add_argument("--json", dest="json_path", default=None,
                     help="also write the suite document here")

    crawl = sub.add_parser("crawl", help="ad-hoc link-check comparison")
    crawl.add_argument("--pages", type=int, default=200)
    crawl.add_argument("--bytes", type=int, default=650_000)
    crawl.add_argument("--bandwidth-mbit", type=float, default=100.0)
    crawl.add_argument("--latency-ms", type=float, default=0.5)
    crawl.add_argument("--max-depth", type=int, default=12)
    crawl.add_argument("--strategy",
                       choices=("stationary", "mobile", "both"),
                       default="both")
    crawl.add_argument("--monitor", action="store_true")
    crawl.add_argument("--seed", type=int, default=2000)

    site = sub.add_parser("site", help="generate and describe a site")
    site.add_argument("--host", default="www.cs.uit.no")
    site.add_argument("--pages", type=int, default=917)
    site.add_argument("--bytes", type=int, default=3_000_000)
    site.add_argument("--seed", type=int, default=2000)
    site.add_argument("--redirects", type=float, default=0.0)
    site.add_argument("--robots", action="store_true")
    site.add_argument("--show-truth", action="store_true")

    trace = sub.add_parser(
        "trace", help="run the traced quickstart and export the spans")
    trace.add_argument("--chrome", default=None, metavar="OUT.json",
                       help="write a Chrome trace_event document here")
    trace.add_argument("--jsonl", default=None, metavar="OUT.jsonl",
                       help="write the span/instant rows as JSONL here")

    report = sub.add_parser(
        "report",
        help="run the traced quickstart; print the itinerary/SLO report")
    report.add_argument("--json", dest="json_path", default=None,
                        metavar="REPORT.json",
                        help="also write the canonical JSON document here")
    report.add_argument("--html", dest="html_path", default=None,
                        metavar="REPORT.html",
                        help="also write a self-contained HTML rendering")

    metrics = sub.add_parser(
        "metrics",
        help="run the traced quickstart; print OpenMetrics text")
    metrics.add_argument("--out", default=None, metavar="METRICS.txt",
                         help="also write the OpenMetrics text here")

    bench = sub.add_parser(
        "bench", help="run E1 under telemetry; write a JSON report")
    bench.add_argument("--seed", type=int, default=2000)
    bench.add_argument("--json", dest="json_path", default=None,
                       metavar="BENCH_E1.json",
                       help="write the machine-readable report here")

    for name, (noun, summary) in SCENARIO_COMMANDS.items():
        scenario = sub.add_parser(name, help=summary)
        scenario.add_argument("--seed", type=int, default=7)
        scenario.add_argument(f"--{noun}", dest="variant", default=None,
                              metavar=noun.upper(),
                              help=f"{noun} name (see --list; default: "
                                   f"the plugin's); an unknown name "
                                   f"exits 2 with the available {noun}s")
        scenario.add_argument("--list", action="store_true",
                              help=f"list the built-in {noun}s and exit")
        if name == "chaos":
            scenario.add_argument(
                "--no-recovery", action="store_true",
                help="drop the recovery kit (monitor/checkpoint/retry/"
                     "rear-guard): the baseline behaviour")
        if name == "crashtest":
            scenario.add_argument(
                "--journal-dump", metavar="PATH", default="",
                help="also write the crashed worker's journal tail as "
                     "JSON-lines to PATH (the CI artifact)")

    suite = sub.add_parser(
        "suite",
        help="run/list/validate declarative experiment suites")
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)
    suite_run = suite_sub.add_parser(
        "run", help="execute a suite file; print the canonical suite "
                    "document; exit non-zero if any cell check fails")
    suite_run.add_argument("file", help="suite file (.yaml/.yml/.json)")
    suite_run.add_argument("--seed", type=int, default=None,
                           help="override the suite file's seed")
    suite_run.add_argument("--json", dest="json_path", default=None,
                           metavar="SUITE.json",
                           help="also write the suite document here "
                                "(the CI artifact)")
    suite_run.add_argument("--digests-only", action="store_true",
                           help="omit the raw per-cell documents; keep "
                                "only their digests and check verdicts")
    suite_list = suite_sub.add_parser(
        "list", help="list the scenario plugins, or a file's expanded "
                     "cells with their derived seeds")
    suite_list.add_argument("file", nargs="?", default=None,
                            help="optional suite file to expand")
    suite_validate = suite_sub.add_parser(
        "validate", help="validate a suite file without running it")
    suite_validate.add_argument("file",
                                help="suite file (.yaml/.yml/.json)")

    lint = sub.add_parser(
        "lint",
        help="run the determinism/safety rule pack over the tree")
    lint.add_argument("paths", nargs="*", default=[],
                      help="files/directories to analyze (default: the "
                           "installed repro package tree)")
    lint.add_argument("--json", action="store_true",
                      help="print the canonical JSON document instead "
                           "of text")
    lint.add_argument("--sarif", default=None, metavar="OUT.sarif",
                      help="also write a SARIF 2.1.0 document here")
    lint.add_argument("--baseline", default=None,
                      metavar="BASELINE.json",
                      help="baseline file (default: lint-baseline.json "
                           "at the repository root)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline: every finding fails "
                           "the gate")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write the current findings as the baseline "
                           "and exit 0")
    lint.add_argument("--sanitize", action="store_true",
                      help="also run the reference scenarios under the "
                           "briefcase-aliasing sanitizer")
    lint.add_argument("--graph", default=None, choices=("dot", "json"),
                      help="print the module-qualified call graph with "
                           "propagated effects instead of findings")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "crawl":
        return _cmd_crawl(args)
    if args.command == "site":
        return _cmd_site(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command in SCENARIO_COMMANDS:
        return _cmd_scenario(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "lint":
        return _cmd_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
