"""Benchmark harness: the paper's experiments, their claims, and the cost
model."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".": "model",
    ".experiments": (
        "E2_NETWORKS E3_VOLUMES EXPERIMENTS run_a1 run_e1 run_e2 run_e3 "
        "run_e4 run_e5 run_experiment run_f3 run_f5 run_m1 run_r1"),
    ".metrics": "ExperimentReport PaperClaim check_slack render_report "
                "render_table",
})
