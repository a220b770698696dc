"""Virtual machines and code shipping.

- :mod:`repro.vm.loader` — payload kinds and pack/unpack (by-ref,
  by-value marshal, source text, signed binary lists);
- :mod:`repro.vm.sandbox` — restricted execution namespaces;
- :mod:`repro.vm.base` — the VM-as-agent launch protocol;
- :mod:`repro.vm.vm_python` / :mod:`repro.vm.vm_source` /
  :mod:`repro.vm.vm_bin` — the three standard engines.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".": "loader",
    ".base": "VirtualMachine",
    ".vm_bin": "VmBin",
    ".vm_pickle": "VmPickle",
    ".vm_python": "VmPython",
    ".vm_source": "VmSource",
    ".sandbox": "DEFAULT_ALLOWED_IMPORTS Sandbox TrustedSandbox run_limited",
})
