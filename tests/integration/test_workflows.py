"""Integration: service-composition workflows (cron launches, cabinet
diffing) and the CLI."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core import wellknown
from repro.vm import loader


def beacon_agent(ctx, bc):
    yield from ctx.send(bc.get_text("HOME"),
                        Briefcase({"BEACON": [f"t={ctx.now:.0f}"]}))
    return "done"


class TestCronLaunchedAgents:
    def test_cron_can_launch_an_agent_later(self, single_cluster):
        """The deferred briefcase is a launch briefcase addressed to a
        VM — ag_cron needs no special agent-launching support."""
        node = single_cluster.node("solo.test")
        driver = node.driver()
        launch = Briefcase()
        loader.install_payload(launch, loader.pack_ref(beacon_agent),
                               agent_name="beacon")
        launch.put("HOME", str(driver.uri))
        launch.put(wellknown.ARGS, {
            "delay": 100.0,
            "target": str(single_cluster.vm_uri("solo.test"))})

        def scenario():
            yield from driver.call_service("ag_cron", "schedule", launch)
            message = yield from driver.recv(timeout=1_000)
            return (single_cluster.kernel.now,
                    message.briefcase.get_text("BEACON"))
        now, beacon = single_cluster.run(scenario())
        assert now >= 100.0
        assert beacon == "t=100"

    def test_two_scheduled_launches_fire_in_order(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver()

        def schedule(delay):
            launch = Briefcase()
            loader.install_payload(launch, loader.pack_ref(beacon_agent),
                                   agent_name="beacon")
            launch.put("HOME", str(driver.uri))
            launch.put(wellknown.ARGS, {
                "delay": delay,
                "target": str(single_cluster.vm_uri("solo.test"))})
            return driver.call_service("ag_cron", "schedule", launch)

        def scenario():
            yield from schedule(50.0)
            yield from schedule(10.0)
            beacons = []
            for _ in range(2):
                message = yield from driver.recv(timeout=1_000)
                beacons.append(message.briefcase.get_text("BEACON"))
            return beacons
        assert single_cluster.run(scenario()) == ["t=10", "t=50"]


class TestCli:
    def test_site_command(self, capsys):
        from repro.cli import main
        assert main(["site", "--pages", "30", "--bytes", "20000"]) == 0
        out = capsys.readouterr().out
        assert "pages         : 30" in out

    def test_crawl_command_both_strategies(self, capsys):
        from repro.cli import main
        rc = main(["crawl", "--pages", "25", "--bytes", "20000",
                   "--max-depth", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stationary" in out and "mobile" in out and "speedup" in out

    def test_experiments_command_single(self, capsys):
        from repro.cli import main
        assert main(["experiments", "F5"]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out and "F5" in out

    def test_unknown_experiment_errors(self, capsys):
        from repro.cli import main
        assert main(["experiments", "Z9"]) == 2
        assert "'Z9'" in capsys.readouterr().err

    def test_parser_rejects_missing_command(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
