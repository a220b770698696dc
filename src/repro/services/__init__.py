"""Standard service agents installed at every TAX landing pad."""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".ag_cabinet": "AgCabinet",
    ".ag_cc": "AgCc",
    ".ag_cron": "AgCron",
    ".ag_exec": "AgExec ExecEnv",
    ".ag_fs": "AgFs",
    ".ag_locator": "AgLocator",
    ".base": "ServiceAgent",
    ".vfs": "VirtualFS",
})
