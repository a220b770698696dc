"""Wrappers: composable, transportable system support for agents.

- :mod:`repro.wrappers.mobility` — the mobility wrapper (mwWebbot's
  generic form): carry a program, hop an itinerary, execute via ag_exec,
  ship condensed results home;
- :mod:`repro.wrappers.monitor` — location reporting + status queries
  (rwWebbot);
- :mod:`repro.wrappers.groupcomm` — FIFO / totally-ordered multicast;
- :mod:`repro.wrappers.location` — location-transparent naming;
- :mod:`repro.wrappers.logwrap` — traffic tap;
- :mod:`repro.wrappers.fault` — checkpoint/recover.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".base": "AgentWrapper",
    ".fault": "CheckpointWrapper recover",
    ".groupcomm": "GroupCommWrapper group_send",
    ".location": "LocationWrapper resolve send_via",
    ".logwrap": "LoggingWrapper",
    ".mobility": (
        "add_stop install_program make_task_briefcase mobile_task_agent "
        "read_program set_home set_postprocessor"),
    ".monitor": "MonitorLog MonitorWrapper",
    ".stack": (
        "WrapperSpec WrapperStack build_stack install_wrappers "
        "read_wrapper_specs"),
})
