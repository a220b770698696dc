"""DET001 (transitive): wall-clock read laundered through an alias.

A direct ``time.time()`` call is reported where it is; binding
``time.time`` to a name and calling the name is reported too: the
whole-program pass records the binding and reports at the innermost
function owning the laundered call, with the binding site in the
witness chain.
"""

import time

_clock = time.time  # the laundering: a callable reference, not a call


def stamp():  # finding: DET001 (transitive, via alias bound above)
    return _clock()


def build_record(payload):  # covered: the finding lands on stamp()
    return {"at": stamp(), "payload": payload}


def deliver(payload):  # caller context for the witness chain
    return build_record(payload)


def honest_stamp():
    return time.time()  # finding: DET001 (direct call)
