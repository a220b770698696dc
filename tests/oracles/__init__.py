"""Reference implementations the Tier-1 tests compare the product against.

Nothing under ``src/repro`` imports from here.  Each module holds the
readable or pre-optimisation twin of one product hot path:

- :mod:`tests.oracles.codec` — the cursor-based briefcase decoder
  (``reference_decode``), the encoder that encodes every folder name
  afresh (``reference_encode``) and the deterministic codec workload;
- :mod:`tests.oracles.routing` — name resolution as a scan over every
  registration (``reference_matches``), where the product reads the
  target name's own list;
- :mod:`tests.oracles.kernel` — the pre-optimisation event kernel
  (dict-based events, a ``run()`` that calls its own ``step()`` once
  per event — the product kernel has one dispatch loop and no
  ``step``) and its timer workload;
- :mod:`tests.oracles.msgqueue` — the pending queue with a
  ``queue-ttl:*`` watcher process and a ``Timeout`` per parked message
  (``ReferencePendingQueue``), where the product arms one timer per
  queue;
- :mod:`tests.oracles.dedup` — the dedup window as one set per peer,
  rebuilt on every accept past capacity (``ReferenceDedupWindow``),
  where the product keeps an ascending list and cuts its head;
- :mod:`tests.oracles.metrics` — the metrics registry as one
  dictionary per family that canonicalises the labels of every call
  (``ReferenceRegistry``): no remembered label sets, no series objects;
- :mod:`tests.oracles.web` — the simulated HTTP exchange before it
  became one pass (``ReferenceClient`` / ``ReferenceServer`` /
  ``ReferenceNetwork`` / ``ReferenceHost`` and
  ``reference_normalize_path``);
- :mod:`tests.oracles.site` — the site generator before pages were
  concatenated and link draws bound once (``reference_render_page`` /
  ``reference_generate_site``);
- :mod:`tests.oracles.boot` — the system-agent boot that built every
  VM's and service's context, mailbox and loop process at registration
  (``eager_system_agents``), where the product starts a loop on its
  first delivery.
"""
